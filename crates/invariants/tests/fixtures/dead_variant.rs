//! Fixture: library enum variants, built and unbuilt.

#[derive(Clone, Copy, Default, PartialEq)]
pub enum Mode {
    #[default]
    Defaulted,
    Dead,
    MatchedOnly,
    ComparedOnly,
    PatternOnly,
    SelfBuilt,
    BuiltElsewhere,
    // invariants: allow(dead-variant) — fixture: a reasoned waiver suppresses
    Waived,
}

pub enum Failure {
    Wrapped(std::io::Error),
    Shown { code: u32 },
}

impl From<std::io::Error> for Failure {
    fn from(e: std::io::Error) -> Self {
        Failure::Wrapped(e)
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Wrapped(e) => write!(f, "{e}"),
            Failure::Shown { code } if *code > 99 => write!(f, "{}", Failure::Shown { code: 99 }),
            Failure::Shown { code } => write!(f, "code {code}"),
        }
    }
}

impl Mode {
    pub fn next(self) -> Mode {
        if let Some(Mode::PatternOnly) = Some(self) {
            return self;
        }
        if self != Mode::ComparedOnly {
            return Mode::default();
        }
        match self {
            Mode::MatchedOnly if self == Mode::ComparedOnly => self,
            Mode::MatchedOnly | Mode::Defaulted => Self::SelfBuilt,
            _ if matches!(Some(self), Some(Mode::PatternOnly)) => self,
            _ => self,
        }
    }
}

#[cfg(test)]
mod tests {
    fn built_in_a_test() -> super::Mode {
        super::Mode::Dead
    }
}
