//! Clean unsafe-audit fixture: every `unsafe` carries its SAFETY comment
//! and the `#[target_feature]` kernel is reached only from the registered
//! dispatch sites, both of which exist. Never compiled.

#[target_feature(enable = "avx2")]
// SAFETY: callers must have detected avx2 on the running CPU.
pub unsafe fn kernel(x: i64) -> i64 {
    x + 1
}

pub fn dispatch(x: i64) -> i64 {
    // SAFETY: fixture pretends the feature was detected at runtime.
    unsafe { kernel(x) }
}

pub fn dispatch_narrow(x: i32) -> i64 {
    // SAFETY: fixture pretends the feature was detected at runtime.
    unsafe { kernel(i64::from(x)) }
}
