//! Environment knobs of the bench layer: one reader, one set of rules.
//!
//! The bench runner ([`BenchRunner`](crate::bench::BenchRunner)) and
//! every bench binary are configured through `FBUF_*` variables.
//! Each kind of value has a pure parser that takes the variable's name
//! and its raw value (`None` when unset), so tests never touch the
//! process environment; [`read`] applies one to the environment. The
//! rules are shared:
//!
//! * unset means the default;
//! * integers are decimal or `0x`-prefixed hex, surrounding whitespace
//!   ignored;
//! * a value that is set but does not parse is an error naming the
//!   variable — never a silent fallback to the default.

/// Reads knob `name` from the process environment through `parse`.
/// A malformed value ends the process with status 2 and the parser's
/// message, which names the variable.
pub fn read<T>(name: &str, parse: impl FnOnce(&str, Option<&str>) -> Result<T, String>) -> T {
    let raw = std::env::var(name).ok();
    parse(name, raw.as_deref()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// Reads a positive count knob (see [`parse_count`]).
pub fn count(name: &str, default: u64) -> u64 {
    read(name, |name, raw| parse_count(name, raw, default))
}

/// An unsigned integer, or `None` when unset.
pub fn parse_u64(name: &str, raw: Option<&str>) -> Result<Option<u64>, String> {
    let Some(raw) = raw else {
        return Ok(None);
    };
    int(raw)
        .map(Some)
        .ok_or_else(|| format!("{name}={raw:?}: expected an unsigned integer (decimal or 0x hex)"))
}

/// A positive count: unset, or `0`, means `default`.
pub fn parse_count(name: &str, raw: Option<&str>, default: u64) -> Result<u64, String> {
    Ok(parse_u64(name, raw)?.filter(|&n| n > 0).unwrap_or(default))
}

/// A finite, non-negative real, or `None` when unset.
pub fn parse_f64(name: &str, raw: Option<&str>) -> Result<Option<f64>, String> {
    let Some(raw) = raw else {
        return Ok(None);
    };
    raw.trim()
        .parse()
        .ok()
        .filter(|x: &f64| x.is_finite() && *x >= 0.0)
        .map(Some)
        .ok_or_else(|| format!("{name}={raw:?}: expected a finite non-negative number"))
}

/// A comma-separated list of counts such as `1,2,4`, sorted and
/// deduplicated, or `None` when unset. Empty entries and zeros are
/// skipped; a list left empty is `[1]`.
pub fn parse_list(name: &str, raw: Option<&str>) -> Result<Option<Vec<usize>>, String> {
    let Some(raw) = raw else {
        return Ok(None);
    };
    let mut list = Vec::new();
    for token in raw.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        let n = int(token)
            .and_then(|n| usize::try_from(n).ok())
            .ok_or_else(|| format!("{name}={raw:?}: `{token}` is not a count"))?;
        if n > 0 {
            list.push(n);
        }
    }
    if list.is_empty() {
        list.push(1);
    }
    list.sort_unstable();
    list.dedup();
    Ok(Some(list))
}

/// A `<threads>:<factor>` gate such as `2:0.6`, or `None` when unset.
pub fn parse_gate(name: &str, raw: Option<&str>) -> Result<Option<(u64, f64)>, String> {
    let Some(raw) = raw else {
        return Ok(None);
    };
    let bad = || format!("{name}={raw:?}: expected <threads>:<factor>, e.g. 2:0.6");
    let (threads, factor) = raw.split_once(':').ok_or_else(bad)?;
    let threads = int(threads).ok_or_else(bad)?;
    let factor = parse_f64(name, Some(factor)).map_err(|_| bad())?;
    Ok(factor.map(|f| (threads, f)))
}

fn int(raw: &str) -> Option<u64> {
    let s = raw.trim();
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_means_default() {
        assert_eq!(parse_u64("K", None), Ok(None));
        assert_eq!(parse_count("K", None, 7), Ok(7));
        assert_eq!(parse_f64("K", None), Ok(None));
        assert_eq!(parse_list("K", None), Ok(None));
        assert_eq!(parse_gate("K", None), Ok(None));
    }

    #[test]
    fn integers_are_decimal_or_hex() {
        assert_eq!(parse_u64("K", Some(" 42 ")), Ok(Some(42)));
        assert_eq!(parse_u64("K", Some("0xfa21")), Ok(Some(0xfa21)));
        assert_eq!(parse_u64("K", Some("0")), Ok(Some(0)));
        assert_eq!(
            parse_count("K", Some("0"), 7),
            Ok(7),
            "a zero count is the default"
        );
        assert_eq!(parse_count("K", Some("20000"), 7), Ok(20_000));
    }

    #[test]
    fn a_set_value_that_does_not_parse_names_the_variable() {
        let e = parse_count("FBUF_STRESS_OPS", Some("20k"), 200_000).unwrap_err();
        assert!(e.contains("FBUF_STRESS_OPS") && e.contains("20k"), "{e}");
        assert!(parse_u64("K", Some("")).is_err());
        assert!(parse_u64("K", Some("-1")).is_err());
        assert!(parse_f64("K", Some("fast")).is_err());
        assert!(parse_f64("K", Some("-0.5")).is_err());
        assert!(parse_f64("K", Some("inf")).is_err());
        assert!(parse_list("K", Some("1,two"))
            .unwrap_err()
            .contains("`two`"));
        for gate in ["2", "x:0.6", "2:y", "2:-1"] {
            assert!(
                parse_gate("K", Some(gate)).unwrap_err().contains("K="),
                "{gate}"
            );
        }
    }

    #[test]
    fn bench_runner_knobs_follow_the_same_rules() {
        // `FBUF_BENCH_ITERS` is a count, `FBUF_BENCH_SEED` an integer:
        // `5k` is an error naming the variable, not 5 iterations.
        let e = parse_count("FBUF_BENCH_ITERS", Some("5k"), 5).unwrap_err();
        assert!(e.contains("FBUF_BENCH_ITERS=\"5k\""), "{e}");
        assert_eq!(parse_count("FBUF_BENCH_ITERS", Some("0"), 5), Ok(5));
        assert_eq!(parse_u64("FBUF_BENCH_SEED", Some("0xfb0f")), Ok(Some(0xfb0f)));
        assert!(parse_u64("FBUF_BENCH_SEED", Some("seed"))
            .unwrap_err()
            .contains("FBUF_BENCH_SEED"));
    }

    #[test]
    fn reals_lists_and_gates() {
        assert_eq!(parse_f64("K", Some("1.1")), Ok(Some(1.1)));
        assert_eq!(parse_f64("K", Some("0")), Ok(Some(0.0)));
        assert_eq!(
            parse_list("K", Some("8, 2,2,0,,1")),
            Ok(Some(vec![1, 2, 8]))
        );
        assert_eq!(parse_list("K", Some("")), Ok(Some(vec![1])));
        assert_eq!(parse_gate("K", Some("2:0.60")), Ok(Some((2, 0.6))));
        assert_eq!(parse_gate("K", Some(" 4 : 2.5 ")), Ok(Some((4, 2.5))));
    }
}
