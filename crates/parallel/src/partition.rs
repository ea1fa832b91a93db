//! Data declustering: how objects are assigned to servers.

/// Round-robin declustering (§5.3): item `i` goes to server `i mod s`,
/// so every server holds ~`1/s` of the database and produces ~`1/s` of
/// each answer set. Returns the per-server lists, each in input order.
/// Items are moved, never cloned; one server takes the input as is.
///
/// # Panics
/// Panics if `s` is zero.
pub fn round_robin<T>(items: Vec<T>, s: usize) -> Vec<Vec<T>> {
    assert!(s > 0, "need at least one server");
    if s == 1 {
        return vec![items];
    }
    let mut parts: Vec<Vec<T>> = (0..s)
        .map(|_| Vec::with_capacity(items.len() / s + 1))
        .collect();
    for (i, item) in items.into_iter().enumerate() {
        parts[i % s].push(item);
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_complete(parts: &[Vec<usize>], n: usize) {
        let mut all: Vec<usize> = parts.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn round_robin_is_balanced_and_complete() {
        let parts = round_robin((0..103).collect(), 4);
        check_complete(&parts, 103);
        assert_eq!(parts[1][..3], [1, 5, 9]);
        let sizes: Vec<usize> = parts.iter().map(Vec::len).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn single_server_gets_everything() {
        let parts = round_robin((0..17).collect(), 1);
        assert_eq!(parts.len(), 1);
        check_complete(&parts, 17);
    }

    #[test]
    fn more_servers_than_objects() {
        let parts = round_robin((0..2).collect(), 5);
        check_complete(&parts, 2);
        assert_eq!(parts.iter().filter(|p| p.is_empty()).count(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        let _ = round_robin(vec![0; 10], 0);
    }
}
