//! Prometheus families declared as rows.

use std::fmt::Write as _;

/// What a [`Family`] exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A monotone count.
    Counter,
    /// A level that goes up and down.
    Gauge,
    /// A histogram of durations, in seconds ([`crate::Histogram::render_into`]).
    Seconds,
    /// A histogram of dimensionless values on this ladder
    /// ([`crate::Histogram::render_values_into`]).
    Values(&'static [u64]),
}

/// One metric family: its name, its `# HELP` text and its [`Kind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Family {
    pub name: &'static str,
    pub help: &'static str,
    pub kind: Kind,
}

impl Family {
    pub const fn counter(name: &'static str, help: &'static str) -> Family {
        Family {
            name,
            help,
            kind: Kind::Counter,
        }
    }

    pub const fn gauge(name: &'static str, help: &'static str) -> Family {
        Family {
            name,
            help,
            kind: Kind::Gauge,
        }
    }

    pub const fn seconds(name: &'static str, help: &'static str) -> Family {
        Family {
            name,
            help,
            kind: Kind::Seconds,
        }
    }

    pub const fn values(name: &'static str, help: &'static str, ladder: &'static [u64]) -> Family {
        Family {
            name,
            help,
            kind: Kind::Values(ladder),
        }
    }

    /// Append the family's `# HELP` and `# TYPE` lines.
    pub fn describe(&self, out: &mut String) {
        let kind = match self.kind {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Seconds | Kind::Values(_) => "histogram",
        };
        let _ = writeln!(
            out,
            "# HELP {name} {}\n# TYPE {name} {kind}",
            self.help,
            name = self.name
        );
    }

    /// Append an unlabeled counter or gauge: its description and its one
    /// sample.
    pub fn render_scalar(&self, out: &mut String, value: u64) {
        self.describe(out);
        let _ = writeln!(out, "{} {value}", self.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_scalar_renders_help_type_and_sample() {
        let mut out = String::new();
        Family::gauge("foxq_x", "An x.").render_scalar(&mut out, 3);
        assert_eq!(out, "# HELP foxq_x An x.\n# TYPE foxq_x gauge\nfoxq_x 3\n");
        let mut out = String::new();
        Family::values("foxq_v", "A v.", &[1, 4]).describe(&mut out);
        assert_eq!(out, "# HELP foxq_v A v.\n# TYPE foxq_v histogram\n");
    }
}
