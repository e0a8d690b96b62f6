//! Property tests for the token scanner: on arbitrary printable
//! input, token spans must round-trip — in bounds, non-overlapping,
//! in source order, and slicing the source at a span must reproduce
//! the token text. Scanning is also a pure function of the input.

use andi_lint::{lint_workspace, scan};
use proptest::prelude::*;

fn assert_spans_round_trip(src: &str) {
    let scanned = scan(src);
    let mut prev_end = 0usize;
    for t in &scanned.tokens {
        let end = t.start + t.len;
        assert!(end <= src.len(), "span out of bounds: {t:?} in {src:?}");
        assert!(
            t.start >= prev_end,
            "overlapping/unordered spans at {t:?} in {src:?}"
        );
        assert!(t.len > 0, "empty token {t:?} in {src:?}");
        assert!(
            src.is_char_boundary(t.start) && src.is_char_boundary(end),
            "span splits a char: {t:?} in {src:?}"
        );
        assert_eq!(
            &src[t.start..end],
            t.text,
            "text does not round-trip for {t:?} in {src:?}"
        );
        assert!(t.line >= 1 && t.col >= 1, "{t:?}");
        prev_end = end;
    }
}

proptest! {
    /// Arbitrary printable-ASCII soup: the scanner must never panic
    /// and every token span must round-trip.
    #[test]
    fn ascii_soup_round_trips(src in "[ -~\n]{0,160}") {
        assert_spans_round_trip(&src);
    }

    /// Rust-ish fragments built from the constructs the lexer special
    /// cases: comments, strings, raw strings, chars, lifetimes,
    /// numbers, ranges.
    #[test]
    fn rusty_fragments_round_trip(
        picks in prop::collection::vec((0usize..9, "[a-z]{1,8}"), 0..12)
    ) {
        let src = picks
            .iter()
            .map(|(i, w)| match i {
                0 => "let x = m.iter();".to_string(),
                1 => "// andi::allow(lib-unwrap) — ok".to_string(),
                2 => "/* block /* nested */ comment */".to_string(),
                3 => "let s = \"a \\\" b\";".to_string(),
                4 => "let r = r#\"raw \" text\"#;".to_string(),
                5 => "let c = 'x'; let nl = '\\n';".to_string(),
                6 => "fn f<'a>(v: &'a str) {}".to_string(),
                7 => "for i in 0..10 { let _ = 1.5e3; }".to_string(),
                _ => format!("let {w} = {w};"),
            })
            .collect::<Vec<_>>()
            .join("\n");
        assert_spans_round_trip(&src);
    }

    /// Scanning twice yields identical output, and linting is
    /// deterministic over arbitrary input (never panics, same
    /// findings on re-run).
    #[test]
    fn scan_and_lint_are_deterministic(src in "[ -~\n]{0,160}") {
        let a = scan(&src);
        let b = scan(&src);
        prop_assert_eq!(a.tokens.len(), b.tokens.len());
        for (x, y) in a.tokens.iter().zip(&b.tokens) {
            prop_assert_eq!(x, y);
        }
        let input = [("crates/core/src/fuzz.rs".to_string(), src.clone())];
        let f1 = lint_workspace(&input);
        let f2 = lint_workspace(&input);
        prop_assert_eq!(f1, f2);
    }
}
