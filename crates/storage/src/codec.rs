//! Object payload codecs: how one stored object becomes bytes and back.
//!
//! The durable store (`mq-store`) frames every record as `oid | len |
//! payload` and hands the payload to an [`ObjectCodec`]; codecs ship for
//! [`mq_metric::Vector`] and [`mq_metric::Symbols`].

use bytes::{Buf, BufMut, Bytes, BytesMut};
use mq_metric::{Symbols, Vector};

/// Encodes/decodes one object type's payload.
pub trait ObjectCodec<O> {
    /// Appends the payload of `object` to `buf`.
    fn encode(&self, object: &O, buf: &mut BytesMut);
    /// Parses one payload from `buf`; the error says what was malformed.
    fn decode(&self, buf: &mut Bytes) -> Result<O, String>;
}

/// Codec for [`Vector`]: `dim:u32` then `dim × f32` little-endian.
#[derive(Clone, Copy, Debug, Default)]
pub struct VectorCodec;

impl ObjectCodec<Vector> for VectorCodec {
    fn encode(&self, object: &Vector, buf: &mut BytesMut) {
        buf.put_u32_le(object.dim() as u32);
        for &c in object.components() {
            buf.put_f32_le(c);
        }
    }

    fn decode(&self, buf: &mut Bytes) -> Result<Vector, String> {
        if buf.remaining() < 4 {
            return Err("truncated vector header".into());
        }
        let dim = buf.get_u32_le() as usize;
        if dim == 0 || buf.remaining() < dim * 4 {
            return Err(format!("bad vector of dim {dim}"));
        }
        let mut components = Vec::with_capacity(dim);
        for _ in 0..dim {
            let c = buf.get_f32_le();
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
    fn encode(&self, object: &Symbols, buf: &mut BytesMut) {
        buf.put_u32_le(object.len() as u32);
        for &s in object.symbols() {
            buf.put_u32_le(s);
        }
    }

    fn decode(&self, buf: &mut Bytes) -> Result<Symbols, String> {
        if buf.remaining() < 4 {
            return Err("truncated symbols header".into());
        }
        let len = buf.get_u32_le() as usize;
        if buf.remaining() < len * 4 {
            return Err(format!("bad symbol sequence of len {len}"));
        }
        let symbols: Vec<u32> = (0..len).map(|_| buf.get_u32_le()).collect();
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
            let mut buf = BytesMut::new();
            SymbolsCodec.encode(&s, &mut buf);
            let mut bytes = buf.freeze();
            assert_eq!(SymbolsCodec.decode(&mut bytes).expect("decode"), s);
            assert!(!bytes.has_remaining(), "decode must consume the payload");
        }
    }

    #[test]
    fn vector_rejects_non_finite_components() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut buf = BytesMut::new();
            buf.put_u32_le(2);
            buf.put_f32_le(1.0);
            buf.put_f32_le(bad);
            let err = VectorCodec.decode(&mut buf.freeze()).unwrap_err();
            assert!(err.contains("non-finite"), "{bad}: {err}");
        }
    }

    #[test]
    fn truncated_and_oversized_claims_are_errors() {
        let mut zero_dim = BytesMut::new();
        zero_dim.put_u32_le(0);
        assert!(VectorCodec.decode(&mut zero_dim.freeze()).is_err());
        let mut huge = BytesMut::new();
        huge.put_u32_le(u32::MAX);
        huge.put_f32_le(1.0);
        assert!(VectorCodec.decode(&mut huge.clone().freeze()).is_err());
        assert!(SymbolsCodec.decode(&mut huge.freeze()).is_err());
        assert!(VectorCodec
            .decode(&mut Bytes::from_static(b"\x01"))
            .is_err());
    }
}
