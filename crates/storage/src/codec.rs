//! Object payload codecs: how one stored object becomes bytes and back.
//!
//! The durable store (`mq-store`) frames every record as `oid | len |
//! payload` and hands the payload to an [`ObjectCodec`]; codecs ship for
//! [`mq_metric::Vector`] and [`mq_metric::Symbols`].

use mq_metric::{Symbols, Vector};
use std::fmt;

/// Encodes/decodes one object type's payload.
pub trait ObjectCodec<O> {
    /// Appends the payload of `object` to `buf`.
    fn encode(&self, object: &O, buf: &mut Vec<u8>);
    /// Parses one payload from the front of `buf`, advancing it past the
    /// payload; the error says what was malformed.
    fn decode(&self, buf: &mut &[u8]) -> Result<O, String>;
}

/// A read ran past the end of its buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Truncated;

impl fmt::Display for Truncated {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("buffer ends before the value does")
    }
}

impl std::error::Error for Truncated {}

/// Checked little-endian reads from the front of a byte slice, the one
/// reader every decoder of the workspace's binary formats goes through. A
/// read that would run past the end fails with [`Truncated`] and consumes
/// nothing.
pub trait ReadLe<'a> {
    /// Takes the next `n` bytes.
    fn read_bytes(&mut self, n: usize) -> Result<&'a [u8], Truncated>;

    /// Takes the next `N` bytes as an array.
    fn read_chunk<const N: usize>(&mut self) -> Result<[u8; N], Truncated>;

    /// Reads one byte.
    fn read_u8(&mut self) -> Result<u8, Truncated> {
        self.read_chunk().map(u8::from_le_bytes)
    }

    /// Reads a little-endian `u16`.
    fn read_u16(&mut self) -> Result<u16, Truncated> {
        self.read_chunk().map(u16::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    fn read_u32(&mut self) -> Result<u32, Truncated> {
        self.read_chunk().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    fn read_u64(&mut self) -> Result<u64, Truncated> {
        self.read_chunk().map(u64::from_le_bytes)
    }

    /// Reads a little-endian `f32`.
    fn read_f32(&mut self) -> Result<f32, Truncated> {
        self.read_chunk().map(f32::from_le_bytes)
    }

    /// Reads a little-endian `f64`.
    fn read_f64(&mut self) -> Result<f64, Truncated> {
        self.read_chunk().map(f64::from_le_bytes)
    }
}

impl<'a> ReadLe<'a> for &'a [u8] {
    fn read_bytes(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        let (head, tail) = self.split_at_checked(n).ok_or(Truncated)?;
        *self = tail;
        Ok(head)
    }

    fn read_chunk<const N: usize>(&mut self) -> Result<[u8; N], Truncated> {
        let (head, tail) = self.split_first_chunk::<N>().ok_or(Truncated)?;
        *self = tail;
        Ok(*head)
    }
}

/// Codec for [`Vector`]: `dim:u32` then `dim × f32` little-endian.
#[derive(Clone, Copy, Debug, Default)]
pub struct VectorCodec;

impl ObjectCodec<Vector> for VectorCodec {
    fn encode(&self, object: &Vector, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(object.dim() as u32).to_le_bytes());
        for &c in object.components() {
            buf.extend_from_slice(&c.to_le_bytes());
        }
    }

    fn decode(&self, buf: &mut &[u8]) -> Result<Vector, String> {
        let dim = buf.read_u32().map_err(|_| "truncated vector header")? as usize;
        let mut body = match buf.read_bytes(dim * 4) {
            Ok(body) if dim > 0 => body,
            _ => return Err(format!("bad vector of dim {dim}")),
        };
        let mut components = Vec::with_capacity(dim);
        while let Ok(c) = body.read_f32() {
            if !c.is_finite() {
                return Err("non-finite component".into());
            }
            components.push(c);
        }
        Ok(Vector::new(components))
    }
}

/// Codec for [`Symbols`]: `len:u32` then `len × u32` little-endian.
#[derive(Clone, Copy, Debug, Default)]
pub struct SymbolsCodec;

impl ObjectCodec<Symbols> for SymbolsCodec {
    fn encode(&self, object: &Symbols, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(object.len() as u32).to_le_bytes());
        for &s in object.symbols() {
            buf.extend_from_slice(&s.to_le_bytes());
        }
    }

    fn decode(&self, buf: &mut &[u8]) -> Result<Symbols, String> {
        let len = buf.read_u32().map_err(|_| "truncated symbols header")? as usize;
        let mut body = buf
            .read_bytes(len * 4)
            .map_err(|_| format!("bad symbol sequence of len {len}"))?;
        let symbols: Vec<u32> = std::iter::from_fn(|| body.read_u32().ok()).collect();
        Ok(Symbols::new(symbols))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Vector payloads roundtrip through `mq-store`'s frame tests; symbol
    // sequences are stored by no test there.
    #[test]
    fn symbols_roundtrip() {
        for s in [
            Symbols::from("hello"),
            Symbols::new(vec![1u32, 2, 3, 4, 5, 6, 7]),
            Symbols::new(Vec::new()),
        ] {
            let mut buf = Vec::new();
            SymbolsCodec.encode(&s, &mut buf);
            let mut bytes = buf.as_slice();
            assert_eq!(SymbolsCodec.decode(&mut bytes).expect("decode"), s);
            assert!(bytes.is_empty(), "decode must consume the payload");
        }
    }

    #[test]
    fn vector_rejects_non_finite_components() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let buf = [2u32.to_le_bytes(), 1.0f32.to_le_bytes(), bad.to_le_bytes()].concat();
            let err = VectorCodec.decode(&mut buf.as_slice()).unwrap_err();
            assert!(err.contains("non-finite"), "{bad}: {err}");
        }
    }

    #[test]
    fn truncated_and_oversized_claims_are_errors() {
        let zero_dim = 0u32.to_le_bytes();
        assert!(VectorCodec.decode(&mut zero_dim.as_slice()).is_err());
        let huge = [u32::MAX.to_le_bytes(), 1.0f32.to_le_bytes()].concat();
        assert!(VectorCodec.decode(&mut huge.as_slice()).is_err());
        assert!(SymbolsCodec.decode(&mut huge.as_slice()).is_err());
        assert!(VectorCodec.decode(&mut &b"\x01"[..]).is_err());
    }

    #[test]
    fn a_short_read_fails_and_consumes_nothing() {
        let mut buf = &[1u8, 2, 3][..];
        assert_eq!(buf.read_u32(), Err(Truncated));
        assert_eq!(buf.read_bytes(4), Err(Truncated));
        assert_eq!(buf.read_u16(), Ok(0x0201));
        assert_eq!(buf, [3]);
    }
}
