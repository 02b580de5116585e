//! Shared command-line parsing for the workspace's hand-rolled CLIs.
//!
//! Every `flightctl` subcommand (and the serve-side binaries) used to
//! re-implement the same loop: split `--flag=value` / `--flag value`,
//! reject unknown flags, collect positionals, and map bad input to exit
//! code 2. This module is that loop, written once. It is deliberately
//! not a full argument-parser dependency — the workspace is hermetic
//! and the CLIs are small — just the common 90%: declared switches
//! (no value), declared value flags (repeatable; last occurrence wins
//! unless you ask for all), typed accessors with uniform error
//! messages, and the three exit codes the tools share.

/// Success.
pub const EXIT_OK: i32 = 0;
/// The check itself failed: health warnings or an SLO breach.
pub const EXIT_FAIL: i32 = 1;
/// Usage or I/O error — the tool never got to the check.
pub const EXIT_USAGE: i32 = 2;

/// Parsed command-line arguments.
#[derive(Debug, Default, Clone)]
pub struct ParsedArgs {
    /// `(flag, value)` in occurrence order; flags keep their `--` form.
    values: Vec<(String, String)>,
    switches: Vec<String>,
    positionals: Vec<String>,
}

/// Parses `args` against a declared vocabulary: `value_flags` take a
/// value (`--flag value` or `--flag=value`), `switches` take none.
///
/// # Errors
///
/// Unknown flags, a value flag without a value, or a switch given an
/// inline `=value`. Errors are human-readable and meant to be passed to
/// a `usage_error`-style printer that exits [`EXIT_USAGE`].
pub fn parse_cli(
    args: &[String],
    value_flags: &[&str],
    switches: &[&str],
) -> Result<ParsedArgs, String> {
    let mut parsed = ParsedArgs::default();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if !arg.starts_with('-') || arg == "-" {
            parsed.positionals.push(args[i].clone());
            i += 1;
            continue;
        }
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (arg, None),
        };
        if switches.contains(&flag) {
            if inline.is_some() {
                return Err(format!("{flag} takes no value"));
            }
            parsed.switches.push(flag.to_string());
        } else if value_flags.contains(&flag) {
            let value = match inline {
                Some(v) => v,
                None => {
                    i += 1;
                    args.get(i)
                        .cloned()
                        .ok_or_else(|| format!("{flag} needs a value"))?
                }
            };
            parsed.values.push((flag.to_string(), value));
        } else {
            return Err(format!("unknown flag {flag}"));
        }
        i += 1;
    }
    Ok(parsed)
}

impl ParsedArgs {
    /// The positional (non-flag) arguments, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// True when `flag` appeared.
    pub fn switch(&self, flag: &str) -> bool {
        self.switches.iter().any(|s| s == flag)
    }

    /// The last value given for `flag`, if any.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// Every value given for `flag`, in order (for repeatable flags).
    pub fn values<'a>(&'a self, flag: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.values
            .iter()
            .filter(move |(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// Parses `flag` as a finite `f64` satisfying `valid`; `expect`
    /// describes the constraint for the error message.
    ///
    /// # Errors
    ///
    /// `"<flag> must be <expect>"` when present but unparsable/invalid.
    pub fn f64_value(
        &self,
        flag: &str,
        valid: impl Fn(f64) -> bool,
        expect: &str,
    ) -> Result<Option<f64>, String> {
        match self.value(flag) {
            None => Ok(None),
            Some(raw) => raw
                .parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && valid(*v))
                .map(Some)
                .ok_or_else(|| format!("{flag} must be {expect}")),
        }
    }

    /// Parses `flag` as a `u64` satisfying `valid`.
    ///
    /// # Errors
    ///
    /// `"<flag> must be <expect>"` when present but unparsable/invalid.
    pub fn u64_value(
        &self,
        flag: &str,
        valid: impl Fn(u64) -> bool,
        expect: &str,
    ) -> Result<Option<u64>, String> {
        match self.value(flag) {
            None => Ok(None),
            Some(raw) => raw
                .parse::<u64>()
                .ok()
                .filter(|v| valid(*v))
                .map(Some)
                .ok_or_else(|| format!("{flag} must be {expect}")),
        }
    }

    /// [`ParsedArgs::u64_value`] narrowed to `usize`.
    ///
    /// # Errors
    ///
    /// Same as [`ParsedArgs::u64_value`].
    pub fn usize_value(
        &self,
        flag: &str,
        valid: impl Fn(usize) -> bool,
        expect: &str,
    ) -> Result<Option<usize>, String> {
        Ok(self
            .u64_value(flag, |v| valid(v as usize), expect)?
            .map(|v| v as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn both_flag_forms_parse_and_positionals_survive() {
        let parsed = parse_cli(
            &strings(&[
                "a.json",
                "--qps",
                "120",
                "--headroom=0.9",
                "--json",
                "b.json",
            ]),
            &["--qps", "--headroom"],
            &["--json"],
        )
        .unwrap();
        assert_eq!(parsed.positionals(), &["a.json", "b.json"]);
        assert_eq!(parsed.value("--qps"), Some("120"));
        assert_eq!(parsed.value("--headroom"), Some("0.9"));
        assert!(parsed.switch("--json"));
        assert!(!parsed.switch("--follow"));
    }

    #[test]
    fn repeated_flags_keep_every_value_and_last_wins_for_value() {
        let parsed = parse_cli(
            &strings(&["--tolerance", "0.05", "--tolerance", "qps=0.2"]),
            &["--tolerance"],
            &[],
        )
        .unwrap();
        assert_eq!(
            parsed.values("--tolerance").collect::<Vec<_>>(),
            vec!["0.05", "qps=0.2"]
        );
        assert_eq!(parsed.value("--tolerance"), Some("qps=0.2"));
    }

    #[test]
    fn vocabulary_is_enforced() {
        let err = |args: &[&str]| parse_cli(&strings(args), &["--out"], &["--json"]).unwrap_err();
        assert!(err(&["--frob"]).contains("unknown flag --frob"));
        assert!(err(&["--out"]).contains("--out needs a value"));
        assert!(err(&["--json=1"]).contains("--json takes no value"));
    }

    #[test]
    fn typed_accessors_validate() {
        let parsed = parse_cli(
            &strings(&["--qps", "-3", "--interval", "0", "--good", "7"]),
            &["--qps", "--interval", "--good"],
            &[],
        )
        .unwrap();
        assert!(parsed
            .f64_value("--qps", |v| v > 0.0, "a positive number")
            .is_err());
        assert!(parsed
            .u64_value("--interval", |v| v > 0, "a positive integer")
            .is_err());
        assert_eq!(
            parsed
                .usize_value("--good", |v| v > 0, "a positive integer")
                .unwrap(),
            Some(7)
        );
        assert_eq!(
            parsed.f64_value("--absent", |_| true, "anything").unwrap(),
            None
        );
    }
}
