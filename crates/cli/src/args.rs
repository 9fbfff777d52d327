//! Minimal argument parsing (no external dependencies): `--key value` and
//! `--flag` pairs after a subcommand.

use std::collections::BTreeMap;

/// Parsed command line: a subcommand plus `--key value` options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    /// `--key value` options; bare `--flag`s map to `"true"`.
    pub options: BTreeMap<String, String>,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
}

/// Flags that never take a value — without this list the parser would
/// swallow a following positional as the flag's value
/// (`lint --strict-connectivity file.qasm` must keep `file.qasm`).
const BOOLEAN_FLAGS: &[&str] = &[
    "hardware",
    "strict-connectivity",
    "no-store",
    "no-wait",
    "no-relaxation",
    "no-readout",
    "stats",
];

/// Parses an argument list (excluding the program name).
pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, String> {
    let mut args = Args::default();
    let mut iter = argv.into_iter().peekable();
    match iter.next() {
        Some(cmd) if !cmd.starts_with("--") => args.command = cmd,
        Some(flag) => return Err(format!("expected a subcommand before '{flag}'")),
        None => return Err("missing subcommand".into()),
    }
    while let Some(tok) = iter.next() {
        if let Some(key) = tok.strip_prefix("--") {
            if key.is_empty() {
                return Err("empty option name '--'".into());
            }
            // value if the next token is not another option
            let value = match iter.peek() {
                _ if BOOLEAN_FLAGS.contains(&key) => "true".to_string(),
                Some(next) if !next.starts_with("--") => iter.next().unwrap(),
                _ => "true".to_string(),
            };
            if args.options.insert(key.to_string(), value).is_some() {
                return Err(format!("duplicate option --{key}"));
            }
        } else {
            args.positional.push(tok);
        }
    }
    Ok(args)
}

impl Args {
    /// Typed lookup of an optional option: `None` when absent.
    pub fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.options
            .get(key)
            .map(|raw| {
                raw.parse()
                    .map_err(|_| format!("--{key}: cannot parse '{raw}'"))
            })
            .transpose()
    }

    /// Typed option lookup with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.get(key)?.unwrap_or(default))
    }

    /// `--format text|json` (default text): true for json.
    pub fn json_format(&self) -> Result<bool, String> {
        match self.options.get("format").map_or("text", String::as_str) {
            "text" => Ok(false),
            "json" => Ok(true),
            other => Err(format!("--format: expected text|json, got '{other}'")),
        }
    }

    /// String option lookup with a default.
    pub fn str_or(&self, key: &str, default: &str) -> String {
        self.options
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// True when `--key` was given (any value but "false").
    pub fn flag(&self, key: &str) -> bool {
        self.options.get(key).map(|v| v != "false").unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(v: &[&str]) -> Result<Args, String> {
        parse(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_subcommand_and_options() {
        let a = of(&["synth", "--qubits", "3", "--device", "toronto", "--verbose"]).unwrap();
        assert_eq!(a.command, "synth");
        assert_eq!(a.get_or("qubits", 0usize).unwrap(), 3);
        assert_eq!(a.str_or("device", "x"), "toronto");
        assert!(a.flag("verbose"));
        assert!(!a.flag("quiet"));
    }

    #[test]
    fn rejects_missing_subcommand() {
        assert!(of(&[]).is_err());
        assert!(of(&["--flag"]).is_err());
    }

    #[test]
    fn rejects_duplicates_and_bad_values() {
        assert!(of(&["run", "--n", "1", "--n", "2"]).is_err());
        let a = of(&["run", "--n", "abc"]).unwrap();
        assert_eq!(
            a.get_or("n", 0usize).unwrap_err(),
            "--n: cannot parse 'abc'"
        );
        // an optional flag: absent is None, present parses, bad is an error
        // with the same wording
        assert_eq!(a.get::<f64>("epsilon").unwrap(), None);
        let b = of(&["run", "--epsilon", "0.25", "--shots", "many"]).unwrap();
        assert_eq!(b.get::<f64>("epsilon").unwrap(), Some(0.25));
        assert_eq!(
            b.get::<usize>("shots").unwrap_err(),
            "--shots: cannot parse 'many'"
        );
        // --format takes text or json only
        assert!(!a.json_format().unwrap());
        assert!(of(&["lint", "--format", "json"])
            .unwrap()
            .json_format()
            .unwrap());
        assert_eq!(
            of(&["lint", "--format", "xml"])
                .unwrap()
                .json_format()
                .unwrap_err(),
            "--format: expected text|json, got 'xml'"
        );
    }

    #[test]
    fn positional_arguments_collect() {
        let a = of(&["show", "file1", "file2", "--k", "v"]).unwrap();
        assert_eq!(a.positional, vec!["file1", "file2"]);
    }

    #[test]
    fn boolean_flags_do_not_swallow_positionals() {
        let a = of(&["lint", "--strict-connectivity", "file.qasm"]).unwrap();
        assert!(a.flag("strict-connectivity"));
        assert_eq!(a.positional, vec!["file.qasm"]);
        let b = of(&["run", "--hardware", "--device", "rome"]).unwrap();
        assert!(b.flag("hardware"));
        assert_eq!(b.str_or("device", "x"), "rome");
    }

    #[test]
    fn defaults_apply_when_absent() {
        let a = of(&["run"]).unwrap();
        assert_eq!(a.get_or("steps", 21usize).unwrap(), 21);
        assert_eq!(a.str_or("device", "ourense"), "ourense");
    }
}
