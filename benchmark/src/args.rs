//! `--flag value` argument lists, shared by every subcommand.

use std::str::FromStr;

pub struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    /// Every argument must be a `--name value` pair.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, got {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Args { pairs })
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn required(&self, name: &str) -> Result<&str, String> {
        self.get(name).ok_or_else(|| format!("missing --{name}"))
    }

    pub fn parsed<T: FromStr>(&self, name: &str) -> Result<T, String> {
        let raw = self.required(name)?;
        parse_value(name, raw)
    }

    pub fn parsed_or<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            Some(raw) => parse_value(name, raw),
            None => Ok(default),
        }
    }
}

fn parse_value<T: FromStr>(name: &str, raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("--{name}: cannot read {raw:?}"))
}

/// Seeds are accepted in decimal or `0x` hexadecimal (the default seed of
/// `run.sh` is written `0xF0E5`).
pub fn parse_seed(raw: &str) -> Result<u64, String> {
    let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    };
    parsed.map_err(|_| format!("--seed: cannot read {raw:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_and_seeds() {
        let raw: Vec<String> = ["--workload", "cli-select", "--seconds", "10"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let args = Args::parse(&raw).unwrap();
        assert_eq!(args.required("workload").unwrap(), "cli-select");
        assert_eq!(args.parsed::<u64>("seconds").unwrap(), 10);
        assert_eq!(args.parsed_or::<u64>("trace", 0).unwrap(), 0);
        assert!(args.required("seed").is_err());
        assert!(Args::parse(&raw[..3]).is_err());
        assert_eq!(parse_seed("0xF0E5").unwrap(), 0xF0E5);
        assert_eq!(parse_seed("42").unwrap(), 42);
        assert!(parse_seed("x").is_err());
    }
}
