//! The one command-line parser of the workspace's binaries.
//!
//! A binary reads each of its flags once, at the top of `main` and
//! outside any `if`, so that the read is the flag's declaration: it
//! returns the flag's value and adds the flag to the synopsis.
//! [`Args::done`] then prints the synopsis for `--help` or `-h` and
//! exits 0, or names the flag and exits 2 on an unknown or repeated
//! flag, a stray argument, a missing value, a value that does not parse
//! or a number outside its bounds, before the binary has run anything.

use std::fmt::{Debug, Display};
use std::ops::RangeBounds;
use std::path::Path;
use std::str::FromStr;

/// Synopsis lines wrap before this many columns.
const WIDTH: usize = 72;

/// A binary's command line, read flag by flag (see the module docs).
#[derive(Debug)]
pub struct Args {
    bin: String,
    /// The arguments after the program path; reads empty what they use.
    rest: Vec<Option<String>>,
    synopsis: String,
    /// The first problem a read found.
    error: Option<String>,
}

impl Args {
    /// The process's own command line.
    #[must_use]
    pub fn from_env() -> Args {
        Args::new(std::env::args())
    }

    /// A command line given as a vector: the program path, then its
    /// arguments.
    #[must_use]
    pub fn new(argv: impl IntoIterator<Item = String>) -> Args {
        let mut argv = argv.into_iter();
        let path = argv.next().unwrap_or_default();
        let bin = Path::new(&path)
            .file_stem()
            .unwrap_or_default()
            .to_string_lossy();
        Args {
            synopsis: format!("usage: {bin}"),
            bin: bin.into_owned(),
            rest: argv.map(Some).collect(),
            error: None,
        }
    }

    /// `flag VALUE`, or `default` (which the synopsis shows) when the
    /// flag is absent.
    pub fn value<T: FromStr + Display>(&mut self, flag: &str, default: T) -> T {
        self.declare(format!(" [{flag} {default}]"));
        self.take(flag).unwrap_or(default)
    }

    /// [`Args::value`], refusing a value outside `bounds`.
    pub fn value_in<T, R>(&mut self, flag: &str, default: T, bounds: R) -> T
    where
        T: FromStr + Display + PartialOrd,
        R: RangeBounds<T> + Debug,
    {
        let value = self.value(flag, default);
        if !bounds.contains(&value) {
            self.fail(format!("{flag}: {value} is outside the bounds {bounds:?}"));
        }
        value
    }

    /// `flag VALUE` if given; `meta` stands for the value in the
    /// synopsis.
    pub fn opt<T: FromStr>(&mut self, flag: &str, meta: &str) -> Option<T> {
        self.declare(format!(" [{flag} {meta}]"));
        self.take(flag)
    }

    /// Whether the value-less `flag` is given.
    pub fn switch(&mut self, flag: &str) -> bool {
        self.declare(format!(" [{flag}]"));
        self.find(flag).is_some()
    }

    /// Ends the reads: prints the synopsis and exits 0 for `--help` or
    /// `-h`; prints the first problem and the synopsis to stderr and
    /// exits 2 if a read failed or an argument was left unread.
    pub fn done(self) {
        let rest: Vec<String> = self.rest.into_iter().flatten().collect();
        if rest.iter().any(|a| a == "--help" || a == "-h") {
            println!("{}", self.synopsis);
            std::process::exit(0);
        }
        let error = match (self.error, rest.first()) {
            (Some(error), _) => error,
            (None, None) => return,
            (None, Some(flag)) if flag.starts_with('-') => format!("{flag}: unknown flag"),
            (None, Some(arg)) => format!("{arg:?}: stray argument"),
        };
        eprintln!("{}: {error}\n{}", self.bin, self.synopsis);
        std::process::exit(2);
    }

    /// Consumes `flag` and returns its position; a second `flag` is an
    /// error.
    fn find(&mut self, flag: &str) -> Option<usize> {
        let at = self.rest.iter().position(|a| a.as_deref() == Some(flag))?;
        self.rest[at] = None;
        if self.rest.iter().any(|a| a.as_deref() == Some(flag)) {
            self.fail(format!("{flag}: given more than once"));
        }
        Some(at)
    }

    /// Consumes `flag` and its value. A value never starts with `--`,
    /// so no flag is taken for the value of the one before it.
    fn take<T: FromStr>(&mut self, flag: &str) -> Option<T> {
        let at = self.find(flag)?;
        let slot = self.rest.get_mut(at + 1);
        let value = slot.and_then(|v| v.take_if(|v| !v.starts_with("--")));
        let parsed = value.as_deref().and_then(|v| v.parse().ok());
        if parsed.is_none() {
            let kind = std::any::type_name::<T>();
            self.fail(match value {
                Some(value) => format!("{flag}: {value:?} is not a valid {kind}"),
                None => format!("{flag}: missing value"),
            });
        }
        parsed
    }

    /// Appends ` [flag …]` to the synopsis, wrapping before `WIDTH`.
    fn declare(&mut self, entry: String) {
        let column = self.synopsis.len() - self.synopsis.rfind('\n').map_or(0, |i| i + 1);
        if column + entry.len() > WIDTH {
            self.synopsis += "\n   ";
        }
        self.synopsis += &entry;
    }

    fn fail(&mut self, error: String) {
        self.error.get_or_insert(error);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(argv: &[&str]) -> Args {
        Args::new(
            std::iter::once("target/release/bench")
                .chain(argv.iter().copied())
                .map(String::from),
        )
    }

    #[test]
    fn values_switches_and_defaults() {
        let mut a = args(&[
            "--log", "x.jsonl", "--resume", "--lr", "-0.5", "--cases", "9",
        ]);
        assert_eq!(a.value("--cases", 60u64), 9);
        assert_eq!(a.value("--batch", 4usize), 4, "absent: the default");
        assert_eq!(a.value("--lr", 1e-3f32), -0.5);
        assert_eq!(a.opt::<String>("--log", "FILE").as_deref(), Some("x.jsonl"));
        assert_eq!(a.opt::<String>("--checkpoint-dir", "DIR"), None);
        assert!(a.switch("--resume"));
        assert!(!a.switch("--compare"));
        assert_eq!(a.value_in("--every", 1u64, 1..), 1);
        assert_eq!(a.error, None);
        assert!(a.rest.iter().all(Option::is_none), "every argument read");
    }

    #[test]
    fn the_synopsis_lists_flags_in_read_order_and_wraps() {
        let mut a = args(&[]);
        a.switch("--resume");
        a.value("--members", String::from("difuzz:7,cascade:1"));
        a.opt::<String>("--checkpoint-dir", "DIR");
        a.value("--checkpoint-every", 1u64);
        a.value("--tolerance", 0.2f64);
        assert_eq!(
            a.synopsis,
            "usage: bench [--resume] [--members difuzz:7,cascade:1]\n    \
             [--checkpoint-dir DIR] [--checkpoint-every 1] [--tolerance 0.2]"
        );
        assert!(a.synopsis.lines().all(|l| l.len() <= WIDTH));
    }

    #[test]
    fn a_bad_read_keeps_the_first_problem_naming_its_flag() {
        let error = |argv: &[&str]| {
            let mut a = args(argv);
            a.value("--seed", 1u64);
            a.value_in("--workers", 2usize, 1..=64);
            a.switch("--mhart");
            a.error
        };
        for (argv, want) in [
            (&["--seed"][..], "--seed: missing value"),
            (&["--seed", "--mhart"], "--seed: missing value"),
            (&["--seed", "4x"], "--seed: \"4x\" is not a valid u64"),
            (
                &["--workers", "0"],
                "--workers: 0 is outside the bounds 1..=64",
            ),
            (
                &["--seed", "1", "--seed", "2"],
                "--seed: given more than once",
            ),
            (&["--mhart", "--mhart"], "--mhart: given more than once"),
            (
                &["--seed", "x", "--workers", "0"],
                "--seed: \"x\" is not a valid u64",
            ),
        ] {
            assert_eq!(error(argv).as_deref(), Some(want), "{argv:?}");
        }
    }

    #[test]
    fn a_flag_is_never_taken_for_a_value() {
        let mut a = args(&["--cases", "--help"]);
        a.value("--cases", 1u64);
        assert_eq!(a.error.as_deref(), Some("--cases: missing value"));
        assert_eq!(a.rest, [None, Some("--help".to_owned())], "left for done");
    }
}
