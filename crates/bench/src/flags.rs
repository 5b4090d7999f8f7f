//! Flag-parsing helpers shared by the bench binaries.

/// A malformed or missing flag value: report it and exit 2, so scripts
/// can tell usage errors from runtime failures (exit 1).
pub fn flag_error(message: String) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

/// Parses the value of a `--flag <value>` pair, failing loudly: a
/// missing or unparsable value is an error, never a silent fallback to
/// the default.
pub fn parse_flag_value<T: std::str::FromStr>(
    flag: &str,
    value: Option<&String>,
    expects: &str,
) -> T {
    let Some(raw) = value else {
        flag_error(format!("{flag} expects {expects}"));
    };
    raw.parse().unwrap_or_else(|_| flag_error(format!("{flag} expects {expects}, got `{raw}`")))
}
