//! The floating-point environment of the solver hot path.
//!
//! A wavefront spreading out of an off-grid source leaves a fringe of values
//! that decay through the subnormal range (1e-38 … 1e-45). x86 cores handle
//! subnormal operands and results with microcode assists that cost on the
//! order of a hundred cycles per operation, so a solve whose far field sits
//! in that range runs several times slower than the same solve on normal
//! numbers. Devito's generated operators, which the paper measured, set
//! flush-to-zero (FTZ) and denormals-are-zero (DAZ) on entry for the same
//! reason.
//!
//! [`FlushDenormals`] is a scoped guard that switches the calling thread to
//! flushing mode and restores the caller's control word when it drops,
//! including during unwinding. The propagators take it at the leaves every
//! executor calls (each tile step, the classic sparse update, the cache
//! gather replay), so every schedule, backend and thread computes in the
//! same mode and the caller's environment never changes.
//!
//! The numeric effect is confined to the subnormal range: an input or result
//! whose magnitude is below `f32::MIN_POSITIVE` (≈1.18e-38) reads or is
//! written as a zero of the same sign; every other operation is unchanged.
//!
//! | target    | register | bits set                      |
//! |-----------|----------|-------------------------------|
//! | `x86_64`  | MXCSR    | FTZ (bit 15), DAZ (bit 6)     |
//! | `aarch64` | FPCR     | FZ (bit 24)                   |
//! | other     | —        | none: the guard is a no-op    |

use std::marker::PhantomData;

/// The mode the guard computes in on this target: `"ftz_daz"` where it
/// flushes subnormal inputs and results to zero, `"ieee"` where it is a
/// no-op and IEEE gradual underflow stays on.
pub const MODE: &str = if FLUSHES { "ftz_daz" } else { "ieee" };

/// Whether [`FlushDenormals`] changes the FP environment on this target.
pub const FLUSHES: bool = cfg!(any(target_arch = "x86_64", target_arch = "aarch64"));

#[cfg(target_arch = "x86_64")]
mod arch {
    use std::arch::asm;

    /// MXCSR flush-to-zero (bit 15) and denormals-are-zero (bit 6).
    pub const FLUSH_BITS: u64 = (1 << 15) | (1 << 6);
    /// MXCSR sticky exception flags (bits 0–5): status, not mode.
    pub const STATUS_BITS: u64 = 0x3f;

    pub fn read() -> u64 {
        let mut csr: u32 = 0;
        // SAFETY: `stmxcsr` stores the 32-bit MXCSR to the pointed-to local,
        // which is valid and writable. No `nomem`/`pure`: the compiler must
        // treat this as a memory access and keep field loads and stores on
        // their side of it.
        unsafe {
            asm!("stmxcsr [{}]", in(reg) &mut csr as *mut u32, options(nostack, preserves_flags))
        };
        u64::from(csr)
    }

    pub fn write(word: u64) {
        let csr = (word & 0xffff) as u32;
        // SAFETY: `ldmxcsr` loads MXCSR from the pointed-to local. Bits
        // 16–31 are reserved and cleared above; bits 0–15, DAZ included,
        // are defined on every x86-64 core, so the load cannot fault. Not
        // `nomem`/`pure`, as in `read`.
        unsafe {
            asm!("ldmxcsr [{}]", in(reg) &csr as *const u32, options(nostack, preserves_flags))
        };
    }
}

#[cfg(target_arch = "aarch64")]
mod arch {
    use std::arch::asm;

    /// FPCR flush-to-zero (bit 24); on AArch64 it flushes subnormal inputs
    /// and results alike.
    pub const FLUSH_BITS: u64 = 1 << 24;
    /// FPCR holds no status; the exception flags live in FPSR.
    pub const STATUS_BITS: u64 = 0;

    pub fn read() -> u64 {
        let fpcr: u64;
        // SAFETY: reading FPCR is permitted at EL0 and has no side effects.
        // No `nomem`/`pure`, so the read orders against memory accesses.
        unsafe { asm!("mrs {}, fpcr", out(reg) fpcr, options(nostack, preserves_flags)) };
        fpcr
    }

    pub fn write(word: u64) {
        // SAFETY: writing FPCR is permitted at EL0; `word` is a value read
        // from FPCR with at most FZ added, so no reserved bit changes. Not
        // `nomem`/`pure`, as in `read`.
        unsafe { asm!("msr fpcr, {}", in(reg) word, options(nostack, preserves_flags)) };
    }
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
mod arch {
    pub const FLUSH_BITS: u64 = 0;
    pub const STATUS_BITS: u64 = 0;

    pub fn read() -> u64 {
        0
    }

    pub fn write(_word: u64) {}
}

/// The calling thread's FP control word: the mode bits of MXCSR (without
/// its sticky exception flags) on `x86_64`, FPCR on `aarch64`, `0`
/// elsewhere. For checking that a call leaves the caller's mode as it found
/// it.
pub fn control_word() -> u64 {
    arch::read() & !arch::STATUS_BITS
}

/// Whether the calling thread currently flushes subnormals to zero.
pub fn flushing() -> bool {
    FLUSHES && control_word() & arch::FLUSH_BITS == arch::FLUSH_BITS
}

/// RAII guard: while it lives, the calling thread flushes subnormal inputs
/// and results to zero (see the [module docs](self)). Dropping it restores
/// the control word the thread had when the guard was taken, also when a
/// panic unwinds through it; guards nest. Exception flags raised while the
/// guard lived stay raised, as IEEE sticky flags should.
///
/// The FP control register is per thread, so the guard is neither `Send`
/// nor `Sync`: it must drop on the thread that took it.
#[must_use = "the FP mode reverts as soon as the guard drops"]
pub struct FlushDenormals {
    saved: u64,
    _per_thread: PhantomData<*const ()>,
}

impl FlushDenormals {
    /// Save the calling thread's control word and set flushing mode.
    #[inline]
    pub fn new() -> Self {
        let saved = arch::read();
        arch::write(saved | arch::FLUSH_BITS);
        FlushDenormals {
            saved,
            _per_thread: PhantomData,
        }
    }
}

impl Default for FlushDenormals {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for FlushDenormals {
    #[inline]
    fn drop(&mut self) {
        arch::write(self.saved | (arch::read() & arch::STATUS_BITS));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    /// Half the smallest normal: a subnormal result under IEEE rules.
    fn halve_min_positive() -> f32 {
        black_box(f32::MIN_POSITIVE) * black_box(0.5f32)
    }

    /// A subnormal operand read through DAZ.
    fn subnormal_plus_zero() -> f32 {
        black_box(f32::from_bits(1)) + black_box(0.0f32)
    }

    #[test]
    fn guard_flushes_results_and_inputs() {
        assert!(!flushing(), "test threads start in the IEEE default");
        assert!(halve_min_positive().is_subnormal());
        {
            let _g = FlushDenormals::new();
            assert_eq!(flushing(), FLUSHES);
            if FLUSHES {
                assert_eq!(halve_min_positive(), 0.0);
                assert_eq!(subnormal_plus_zero(), 0.0);
            }
            // Normal numbers are untouched.
            assert_eq!(
                black_box(f32::MIN_POSITIVE) * black_box(2.0f32),
                2.0 * f32::MIN_POSITIVE
            );
        }
        assert!(halve_min_positive().is_subnormal());
        assert!(subnormal_plus_zero().is_subnormal());
    }

    #[test]
    fn drop_restores_caller_word() {
        let before = control_word();
        drop(FlushDenormals::new());
        assert_eq!(control_word(), before);
    }

    #[test]
    fn drop_restores_a_non_default_caller_word() {
        // A caller that already runs with one of the bits set (FTZ alone on
        // x86) gets exactly that word back, not the IEEE default.
        let before = control_word();
        let partial = before | (arch::FLUSH_BITS & ((1 << 15) | (1 << 24)));
        arch::write(partial);
        drop(FlushDenormals::new());
        assert_eq!(control_word(), partial);
        arch::write(before);
        assert_eq!(control_word(), before);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn exception_flags_raised_inside_stay_raised() {
        const INVALID: u64 = 1;
        arch::write(control_word());
        {
            let _g = FlushDenormals::new();
            assert!((black_box(0.0f32) / black_box(0.0f32)).is_nan());
        }
        assert_eq!(
            arch::read() & INVALID,
            INVALID,
            "0/0 raised the invalid flag"
        );
        arch::write(control_word());
    }

    #[test]
    fn unwinding_restores_caller_word() {
        let before = control_word();
        let r = std::panic::catch_unwind(|| {
            let _g = FlushDenormals::new();
            assert_eq!(flushing(), FLUSHES);
            panic!("unwind through the guard");
        });
        assert!(r.is_err());
        assert_eq!(control_word(), before);
        assert!(halve_min_positive().is_subnormal());
    }

    #[test]
    fn nested_guards_restore_in_order() {
        let before = control_word();
        let outer = FlushDenormals::new();
        let inside = control_word();
        {
            let _inner = FlushDenormals::new();
            assert_eq!(flushing(), FLUSHES);
        }
        assert_eq!(control_word(), inside, "inner drop restores the outer mode");
        assert_eq!(flushing(), FLUSHES);
        drop(outer);
        assert_eq!(control_word(), before);
    }
}
