//! The one command-line parser behind `figures`, `cellstats` and
//! `chaos-cli`. Each binary declares its options once, as a table of
//! `(name, Flag | Value)`, and every binary follows the same rules:
//!
//! - an option missing from the table is an error;
//! - a [`Value`] option takes the next argument, which may not itself be
//!   an option (`--seed --hdd` is an error, never the seed `"--hdd"`);
//! - a [`Flag`] takes no value (in `--scrub 1` the `1` is a positional);
//! - when an option is repeated, the last value wins;
//! - every other argument is a positional, in order, wherever it stands.
//!
//! A typed value that does not parse is `bad value for --x: "v"`. Every
//! error is one line, which the binary prints after `error: ` before it
//! exits with status 1, having run nothing.

use std::process::ExitCode;
use std::str::FromStr;

/// What an option takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arity {
    /// Present or absent.
    Flag,
    /// Takes one value.
    Value,
}

pub use Arity::{Flag, Value};

/// A binary's option table: names (with their `--`) and what each takes.
pub type Options = [(&'static str, Arity)];

/// A command line parsed against an option table.
#[derive(Debug)]
pub struct Args {
    table: &'static Options,
    flags: Vec<&'static str>,
    values: Vec<(&'static str, String)>,
    positionals: Vec<String>,
}

impl Args {
    /// Parses `argv` (program name excluded) against `table`.
    ///
    /// # Errors
    ///
    /// Names an unknown option or a value option without its value.
    pub fn parse(
        table: &'static Options,
        argv: impl IntoIterator<Item = String>,
    ) -> Result<Self, String> {
        let mut args = Self {
            table,
            flags: Vec::new(),
            values: Vec::new(),
            positionals: Vec::new(),
        };
        let mut argv = argv.into_iter();
        while let Some(arg) = argv.next() {
            if !arg.starts_with("--") {
                args.positionals.push(arg);
                continue;
            }
            let Some(&(name, arity)) = table.iter().find(|(n, _)| *n == arg) else {
                return Err(format!("unknown option {arg}"));
            };
            match arity {
                Flag => args.flags.push(name),
                Value => match argv.next() {
                    Some(value) if !value.starts_with("--") => args.values.push((name, value)),
                    _ => return Err(format!("{name} needs a value")),
                },
            }
        }
        Ok(args)
    }

    /// Whether flag `name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.check(name, Flag);
        self.flags.contains(&name)
    }

    /// The last value given for `name`.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.check(name, Value);
        self.values
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The last value given for `name`, parsed.
    ///
    /// # Errors
    ///
    /// `bad value for --x: "v"` when it does not parse.
    pub fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name).map(|v| parse(name, v)).transpose()
    }

    /// [`Args::get`], or `default` when `name` was not given.
    ///
    /// # Errors
    ///
    /// As [`Args::get`].
    pub fn get_or<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.get(name)?.unwrap_or(default))
    }

    /// Every positional, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// The positionals, of which the binary takes at most `max`.
    ///
    /// # Errors
    ///
    /// Names the first one past `max`.
    pub fn at_most(&self, max: usize) -> Result<&[String], String> {
        match self.positionals.get(max) {
            Some(extra) => Err(format!("unexpected argument {extra:?}")),
            None => Ok(&self.positionals),
        }
    }

    /// A name the binary asks for is in its own table: a lookup that can
    /// never match is a typo in the binary, not in the command line.
    fn check(&self, name: &str, arity: Arity) {
        debug_assert!(
            self.table.iter().any(|&(n, a)| n == name && a == arity),
            "{name} is not a {arity:?} option of this binary"
        );
    }
}

/// `value`, the argument `what` names, parsed.
///
/// # Errors
///
/// `bad value for <what>: "<value>"`.
pub fn parse<T: FromStr>(what: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad value for {what}: {value:?}"))
}

/// The exit status of a binary whose work returned `result`: success, or
/// its error printed as the one `error:` line and status 1.
pub fn exit_code(result: Result<(), String>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Creates the file an output option names. Binaries call it before they
/// run anything, so a path that cannot be written costs one error line,
/// not a finished run.
///
/// # Errors
///
/// Names the path and the I/O error.
pub fn create(path: &str) -> Result<std::fs::File, String> {
    std::fs::File::create(path).map_err(|e| format!("cannot write {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: &Options = &[("--full", Flag), ("--seed", Value), ("--out", Value)];

    fn parse_args(argv: &[&str]) -> Result<Args, String> {
        Args::parse(TABLE, argv.iter().map(|a| a.to_string()))
    }

    #[test]
    fn a_repeated_option_takes_its_last_value() {
        let args = parse_args(&["--seed", "1", "--seed", "2", "--seed", "4"]).unwrap();
        assert_eq!(args.value("--seed"), Some("4"));
        assert_eq!(args.get::<u64>("--seed"), Ok(Some(4)));
        let args = parse_args(&["--full", "--full"]).unwrap();
        assert!(args.flag("--full"));
    }

    #[test]
    fn a_value_is_never_another_option() {
        assert_eq!(
            parse_args(&["--seed", "--full"]).unwrap_err(),
            "--seed needs a value"
        );
        assert_eq!(
            parse_args(&["--seed", "--no-such"]).unwrap_err(),
            "--seed needs a value"
        );
        // A single dash is a value: negative numbers stay expressible.
        assert_eq!(
            parse_args(&["--seed", "-1"]).unwrap().value("--seed"),
            Some("-1")
        );
    }

    #[test]
    fn a_flag_takes_no_value() {
        // The would-be value is a positional, for the binary to accept or
        // reject; it never disappears into the flag.
        let args = parse_args(&["--full", "yes"]).unwrap();
        assert!(args.flag("--full"));
        assert_eq!(args.positionals(), ["yes"]);
    }

    #[test]
    fn a_trailing_value_option_without_its_value_is_an_error() {
        assert_eq!(
            parse_args(&["fig7", "--seed"]).unwrap_err(),
            "--seed needs a value"
        );
        // An empty argument is a value all the same.
        assert_eq!(parse_args(&["--out", ""]).unwrap().value("--out"), Some(""));
    }

    #[test]
    fn positionals_interleave_with_options_in_order() {
        let args = parse_args(&["a", "--seed", "7", "b", "--full", "c", "--out", "d"]).unwrap();
        assert_eq!(args.positionals(), ["a", "b", "c"]);
        assert_eq!(args.get_or("--seed", 0u32), Ok(7));
        assert_eq!(args.value("--out"), Some("d"));
        assert!(args.flag("--full"));
        assert_eq!(args.at_most(3).unwrap().len(), 3);
        assert_eq!(args.at_most(2).unwrap_err(), "unexpected argument \"c\"");
    }

    #[test]
    fn unknown_options_and_bad_values_are_named() {
        assert_eq!(
            parse_args(&["--no-such", "1"]).unwrap_err(),
            "unknown option --no-such"
        );
        assert_eq!(
            parse_args(&["--full=1"]).unwrap_err(),
            "unknown option --full=1"
        );
        let args = parse_args(&["--seed", "x"]).unwrap();
        assert_eq!(
            args.get::<u64>("--seed").unwrap_err(),
            "bad value for --seed: \"x\""
        );
        assert_eq!(args.get_or::<u64>("--out", 5), Ok(5), "absent: the default");
        assert_eq!(
            parse::<usize>("machines", "four").unwrap_err(),
            "bad value for machines: \"four\""
        );
    }
}
