//! Alloc-freedom fixture: `push` and `tick` are the registered
//! per-sample scopes. Never compiled — consumed by `fixtures_test.rs`
//! as text; line numbers are asserted by the tests.

pub struct Ring {
    buf: Vec<i64>,
    label: String,
}

impl Ring {
    pub fn push(&mut self, v: i64) {
        self.buf.push(v); // seeded alloc violation (line 12)
        let boxed = Box::new(v); // seeded alloc violation (line 13)
        drop(boxed);
    }

    pub fn tick(&mut self) {
        self.label = format!("tick"); // seeded alloc violation (line 18)
        // xanalyze: begin-allow(alloc) — fixture: a justified amortized push.
        self.buf.push(0);
        // xanalyze: end-allow(alloc)
        self.buf.reserve(1); // seeded alloc violation (line 22)
    }

    pub fn setup(&mut self) {
        self.buf.push(1); // unregistered fn: allocation is legal here
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_allocate() {
        let mut v = vec![0i64];
        v.push(1);
    }

    // A test fn does not satisfy the registered `drain` scope: the stale
    // registration is a seeded finding (line 0).
    fn drain() {}
}
