//! Adversarial alloc fixture: `push`, `tick` and `drain` are registered scopes,
//! yet every allocating token below hides where only a real lexer (or
//! the marker grammar) can prove it harmless. Zero findings required.

pub struct Ring {
    buf: Vec<i64>,
}

impl Ring {
    pub fn push(&mut self, v: i64) {
        // A comment saying buf.push(v) or format! or Box::new(v) is prose.
        let doc = "buf.push(v); format!(\"x\"); vec![Box::new(v)]";
        let n = doc.len();
        if let Some(slot) = self.buf.last_mut() {
            *slot = v + n as i64;
        }
    }

    pub fn tick(&mut self) {
        // xanalyze: begin-allow(alloc) — fixture: justified amortized
        // growth inside a registered scope.
        self.buf.push(0);
        // xanalyze: end-allow(alloc)
        self.buf.clear(); // `clear` frees nothing and is not a growth call
    }

    pub fn drain(&mut self) {}

    pub fn setup(&mut self) {
        // Unregistered fn: allocation is legal here.
        self.buf = Vec::with_capacity(64);
        self.buf.push(1);
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_spans_may_allocate() {
        let mut v = vec![0i64];
        v.push(1);
        v.extend([2]);
    }
}
