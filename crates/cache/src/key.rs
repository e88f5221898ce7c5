//! The content address of one experiment.

use std::fmt::{self, Write as _};

use cedar_obs::json::{FNV_BASIS, FNV_PRIME};

/// The second lane's offset basis: the standard FNV prime with an
/// arbitrary fixed alternate basis gives a second independent 64-bit
/// view of the same bytes for the 128-bit key.
const ALT_BASIS: u64 = 0x6c62_272e_07bb_0142;

/// Both FNV-1a lanes of a [`RunKey`], fed one byte stream. As a
/// [`fmt::Write`] sink it hashes canonical text while it is being
/// formatted, so the text is never materialized.
struct Lanes {
    hi: u64,
    lo: u64,
}

impl fmt::Write for Lanes {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.hi = (self.hi ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            self.lo = (self.lo ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        Ok(())
    }
}

/// The canonical semantic fingerprint of one `(application, machine
/// configuration)` experiment: 128 bits of FNV-1a over the canonical
/// text, with [`crate::MODEL_VERSION`] mixed in so behavior bumps
/// re-key everything.
///
/// The canonical text is produced by the caller (`cedar-core` renders
/// the `AppSpec` and `SimConfig` through their `Debug` forms, which
/// cover every field that shapes the simulation). Anything that changes
/// the text changes the key; anything that changes simulator behavior
/// without changing the text must bump `MODEL_VERSION`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunKey {
    hi: u64,
    lo: u64,
}

impl RunKey {
    /// Keys `canonical`, mixing in the model version.
    pub fn new(canonical: &str) -> RunKey {
        RunKey::from_fmt(format_args!("{canonical}"))
    }

    /// Keys the canonical text `canonical` formats to, hashing it in
    /// one streaming pass as it is formatted. Equal to
    /// `RunKey::new(&canonical.to_string())`, without the `String`.
    pub fn from_fmt(canonical: fmt::Arguments<'_>) -> RunKey {
        let mut lanes = Lanes {
            hi: FNV_BASIS,
            lo: ALT_BASIS,
        };
        // `Lanes` never fails a write, so formatting into it cannot
        // fail either.
        let _ = write!(lanes, "model={};{canonical}", crate::MODEL_VERSION);
        RunKey {
            hi: lanes.hi,
            lo: lanes.lo,
        }
    }

    /// The 32-hex-digit content address (filename stem).
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }

    /// The two-level fan-out: first byte of the address.
    pub fn shard(&self) -> String {
        format!("{:02x}", self.hi >> 56)
    }
}

impl std::fmt::Display for RunKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_stable_and_discriminating() {
        let a = RunKey::new("app=FLO52;config=P32");
        let b = RunKey::new("app=FLO52;config=P32");
        let c = RunKey::new("app=FLO52;config=P16");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.hex(), b.hex());
        assert_eq!(a.hex().len(), 32);
    }

    #[test]
    fn keys_are_pinned_across_releases() {
        // The on-disk cache and every reply's `key` field are addressed
        // by these bits: a hashing change that moves them orphans every
        // stored entry. Only a MODEL_VERSION bump may move (and re-pin)
        // them.
        for (canonical, hex) in [
            ("", "743facb3790b56e5c313b37ffab70daa"),
            ("app=FLO52;config=P32", "5f4ef5a1239cc7bc0dabb7d67fd027a7"),
            ("seed=0", "5579d25375977f49aea01bf2033db676"),
        ] {
            assert_eq!(RunKey::new(canonical).hex(), hex, "{canonical:?}");
        }
    }

    #[test]
    fn formatted_keys_equal_keys_of_the_formatted_text() {
        let (app, p) = ("MDG", 16);
        assert_eq!(
            RunKey::from_fmt(format_args!("app={app:?};config=P{p}")),
            RunKey::new(&format!("app={app:?};config=P{p}"))
        );
    }

    #[test]
    fn shard_is_a_prefix_byte() {
        let k = RunKey::new("x");
        assert_eq!(k.shard(), k.hex()[..2].to_string());
    }

    #[test]
    fn single_bit_of_input_changes_both_halves() {
        let a = RunKey::new("seed=0");
        let b = RunKey::new("seed=1");
        assert_ne!(a.hex()[..16], b.hex()[..16]);
        assert_ne!(a.hex()[16..], b.hex()[16..]);
    }
}
