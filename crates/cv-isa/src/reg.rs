//! General-purpose registers and condition flags.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The eight general-purpose registers of the simulated machine.
///
/// Names mirror 32-bit x86 so that the learning traces, patch descriptions, and repair
/// reports read like the examples in the paper (e.g. `mov [ebp+12], eax`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Reg {
    /// Accumulator; also holds procedure return values by convention.
    Eax,
    /// General purpose.
    Ebx,
    /// Counter register; used by copy loops by convention.
    Ecx,
    /// General purpose.
    Edx,
    /// Source index.
    Esi,
    /// Destination index.
    Edi,
    /// Frame base pointer.
    Ebp,
    /// Stack pointer.
    Esp,
}

impl Reg {
    /// All registers, in encoding order.
    pub const ALL: [Reg; 8] = [
        Reg::Eax,
        Reg::Ebx,
        Reg::Ecx,
        Reg::Edx,
        Reg::Esi,
        Reg::Edi,
        Reg::Ebp,
        Reg::Esp,
    ];

    /// The index used by the binary encoding (0..=7).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Reg::Eax => 0,
            Reg::Ebx => 1,
            Reg::Ecx => 2,
            Reg::Edx => 3,
            Reg::Esi => 4,
            Reg::Edi => 5,
            Reg::Ebp => 6,
            Reg::Esp => 7,
        }
    }

    /// Decode a register from its encoding index.
    pub fn from_index(idx: usize) -> Option<Reg> {
        Reg::ALL.get(idx).copied()
    }

    /// The conventional lowercase x86-style name (`eax`, `ebx`, ...).
    pub fn name(self) -> &'static str {
        match self {
            Reg::Eax => "eax",
            Reg::Ebx => "ebx",
            Reg::Ecx => "ecx",
            Reg::Edx => "edx",
            Reg::Esi => "esi",
            Reg::Edi => "edi",
            Reg::Ebp => "ebp",
            Reg::Esp => "esp",
        }
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Condition flags produced by arithmetic and comparison instructions.
///
/// Only the flags consumed by the conditional jumps in [`crate::Cond`] are modelled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Flags {
    /// Result was zero.
    pub zero: bool,
    /// Result was negative when interpreted as a signed value.
    pub sign: bool,
    /// Unsigned borrow / carry out.
    pub carry: bool,
    /// Signed overflow.
    pub overflow: bool,
}

impl Flags {
    /// Compute flags for the subtraction `a - b`, as `cmp a, b` would.
    ///
    /// The sign flag is the sign bit of the (wrapping) result; the signed "less than"
    /// condition is `sign != overflow`, exactly as on x86.
    #[inline]
    pub fn from_cmp(a: u32, b: u32) -> Flags {
        let (res, carry) = a.overflowing_sub(b);
        let (_, overflow) = (a as i32).overflowing_sub(b as i32);
        Flags {
            zero: res == 0,
            sign: (res as i32) < 0,
            carry,
            overflow,
        }
    }

    /// Compute flags for a result value (used by `add`, `sub`, logical operations).
    #[inline]
    pub fn from_result(res: u32, carry: bool, overflow: bool) -> Flags {
        Flags {
            zero: res == 0,
            sign: (res as i32) < 0,
            carry,
            overflow,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_index_round_trip() {
        for r in Reg::ALL {
            assert_eq!(Reg::from_index(r.index()), Some(r));
        }
        assert_eq!(Reg::from_index(8), None);
    }

    #[test]
    fn register_names_are_unique() {
        let mut names: Vec<&str> = Reg::ALL.iter().map(|r| r.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn cmp_flags_equal_sets_zero() {
        let f = Flags::from_cmp(7, 7);
        assert!(f.zero);
        assert!(!f.carry);
    }

    #[test]
    fn cmp_flags_unsigned_borrow() {
        let f = Flags::from_cmp(1, 2);
        assert!(!f.zero);
        assert!(f.carry, "1 - 2 borrows in unsigned arithmetic");
    }

    #[test]
    fn cmp_flags_signed_negative() {
        // -1 compared with 0 must look "less than" in the signed sense.
        let f = Flags::from_cmp((-1i32) as u32, 0);
        assert!(f.sign ^ f.overflow, "signed less-than condition holds");
    }

    #[test]
    fn cmp_flags_signed_positive_vs_negative() {
        // 5 compared with -3: 5 > -3, so signed less-than must not hold.
        let f = Flags::from_cmp(5, (-3i32) as u32);
        assert!(!(f.sign ^ f.overflow));
        assert!(!f.zero);
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Reg::Eax.to_string(), "eax");
        assert_eq!(Reg::Esp.to_string(), "esp");
    }
}
