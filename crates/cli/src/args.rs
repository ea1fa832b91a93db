//! Minimal `--key value` argument parsing (no external dependencies).

use std::collections::HashMap;

/// Options that take no value: present means on.
const SWITCHES: [&str; 3] = ["no-avoidance", "checkpoint", "stats"];

/// Parsed command line: a subcommand, positional arguments, `--key value`
/// options and valueless switches.
#[derive(Debug, Default)]
pub struct Args {
    /// The subcommand (first non-flag argument).
    pub command: String,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    options: HashMap<String, String>,
}

/// A user-facing argument error.
#[derive(Debug)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses an argument list (excluding the program name).
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Self, ArgError> {
        let mut out = Args::default();
        let mut it = argv.into_iter().peekable();
        while let Some(arg) = it.next() {
            if let Some(key) = arg.strip_prefix("--") {
                let value = if SWITCHES.contains(&key) {
                    // `--stats true` was the documented spelling while every
                    // option demanded a value; it keeps working.
                    it.next_if(|next| next == "true").unwrap_or_default()
                } else {
                    it.next()
                        .ok_or_else(|| ArgError(format!("missing value for --{key}")))?
                };
                if out.options.insert(key.to_string(), value).is_some() {
                    return Err(ArgError(format!("--{key} given twice")));
                }
            } else if out.command.is_empty() {
                out.command = arg;
            } else {
                out.positional.push(arg);
            }
        }
        Ok(out)
    }

    /// Fails if an option was given that the command does not read: a
    /// misspelt or retired option must stop the run, not silently fall
    /// back to a default.
    pub fn reject_unknown(&self, known: &[&str]) -> Result<(), ArgError> {
        let unknown = self
            .options
            .keys()
            .filter(|key| !known.contains(&key.as_str()))
            .min();
        match unknown {
            None => Ok(()),
            Some(key) => Err(ArgError(format!(
                "unknown option --{key} for 'mq {}' (it reads: --{})",
                self.command,
                known.join(" --")
            ))),
        }
    }

    /// A required string option.
    pub fn required(&self, key: &str) -> Result<&str, ArgError> {
        self.options
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| ArgError(format!("missing required option --{key}")))
    }

    /// An optional string option with a default.
    pub fn string_or(&self, key: &str, default: &str) -> String {
        self.options
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// An optional parsed option with a default.
    pub fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("cannot parse --{key} value '{v}'"))),
        }
    }

    /// Whether an option was provided at all.
    pub fn has(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(parts: &[&str]) -> Result<Args, ArgError> {
        Args::parse(parts.iter().map(|s| s.to_string()))
    }

    #[test]
    fn basic_parsing() {
        let a = parse(&["query", "db", "--knn", "10", "--index", "xtree"]).unwrap();
        assert_eq!(a.command, "query");
        assert_eq!(a.positional, vec!["db"]);
        assert_eq!(a.required("knn").unwrap(), "10");
        assert_eq!(a.parse_or("knn", 0usize).unwrap(), 10);
        assert_eq!(a.string_or("index", "scan"), "xtree");
        assert_eq!(a.string_or("missing", "fallback"), "fallback");
        assert!(a.has("index"));
        assert!(!a.has("nope"));
    }

    #[test]
    fn missing_value_rejected() {
        assert!(parse(&["generate", "--n"]).is_err());
    }

    #[test]
    fn switches_take_no_value() {
        // Last argument: nothing to swallow, nothing missing.
        let a = parse(&["batch", "db", "--knn", "3", "--no-avoidance"]).unwrap();
        assert!(a.has("no-avoidance"));
        // In the middle: the next option survives.
        let a = parse(&[
            "query",
            "db",
            "--object",
            "1",
            "--no-avoidance",
            "--knn",
            "3",
        ])
        .unwrap();
        assert!(a.has("no-avoidance"));
        assert_eq!(a.required("knn").unwrap(), "3");
        assert_eq!(a.positional, vec!["db"]);
        // The older `--stats true` spelling is one switch, not a positional.
        let a = parse(&["client", "--stats", "true", "--addr", "x:1"]).unwrap();
        assert!(a.has("stats"));
        assert!(a.positional.is_empty());
        assert_eq!(a.required("addr").unwrap(), "x:1");
        let a = parse(&["insert", "dir", "--checkpoint"]).unwrap();
        assert!(a.has("checkpoint"));
    }

    #[test]
    fn unknown_option_rejected_by_name() {
        let a = parse(&["query", "db", "--indx", "scan", "--knn", "3"]).unwrap();
        let err = a.reject_unknown(&["knn", "index"]).unwrap_err();
        assert!(err.0.contains("unknown option --indx"), "{err}");
        assert!(err.0.contains("mq query"), "{err}");
        // Known options pass; the retired global --simd is one more unknown.
        let a = parse(&["query", "db", "--index", "scan"]).unwrap();
        assert!(a.reject_unknown(&["knn", "index"]).is_ok());
        let a = parse(&["query", "db", "--index", "scan", "--simd", "off"]).unwrap();
        let err = a.reject_unknown(&["knn", "index"]).unwrap_err();
        assert!(err.0.contains("unknown option --simd"), "{err}");
    }

    #[test]
    fn duplicate_option_rejected() {
        assert!(parse(&["g", "--n", "1", "--n", "2"]).is_err());
    }

    #[test]
    fn bad_parse_reported() {
        let a = parse(&["g", "--n", "abc"]).unwrap();
        assert!(a.parse_or("n", 0usize).is_err());
    }

    #[test]
    fn empty_command_line() {
        let a = parse(&[]).unwrap();
        assert!(a.command.is_empty());
    }
}
