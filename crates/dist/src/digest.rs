//! The stable run digest: FNV-1a over a rendered event log — the one
//! dependency-free hash behind the scenario goldens, their replay check and
//! the benchmark, so two machines (or two sessions) can compare runs by one hex
//! token.

/// FNV-1a over the bytes of `text`.
pub fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Renders a digest the way every log and golden file spells it.
pub fn format_digest(d: u64) -> String {
    format!("{d:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a("foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn formats_as_sixteen_hex_digits() {
        assert_eq!(format_digest(0x2a), "000000000000002a");
        assert_eq!(format_digest(fnv1a("")).len(), 16);
    }
}
