//! Unsafe-audit fixture: one uncommented `unsafe`, one commented one, one
//! `#[target_feature]` kernel, one registered dispatch call site, one
//! rogue call site, and one stale registration. Never compiled.

#[target_feature(enable = "avx2")]
pub unsafe fn kernel(x: i64) -> i64 {
    // The missing SAFETY comment above `pub unsafe fn` is a seeded
    // violation (line 6).
    x + 1
}

pub fn dispatch(x: i64) -> i64 {
    // SAFETY: fixture pretends the feature was detected at runtime.
    unsafe { kernel(x) } // registered site: not a finding
}

pub fn rogue(x: i64) -> i64 {
    // SAFETY: commented, but this fn is not a registered dispatch site.
    unsafe { kernel(x) } // seeded dispatch violation (line 19)
}

pub fn uncommented(x: *const i64) -> i64 {
    unsafe { *x } // seeded missing-SAFETY violation (line 23)
}

// `dispatch_narrow` is registered but was deleted: this comment naming it
// is not a body, so the stale registration is a seeded finding (line 0).
