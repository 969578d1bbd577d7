//! Fixture: library `pub fn`s with and without callers in other files.

pub fn called_elsewhere() -> u32 {
    1
}

pub fn never_called() -> u32 {
    2
}

pub fn only_called_here() -> u32 {
    never_called() + 1
}

// invariants: allow(dead-pub) — fixture: a reasoned waiver suppresses
pub fn waived() {}

#[cfg(test)]
mod tests {
    pub fn test_helper() {}
}
