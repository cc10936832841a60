//! Property-based cross-checks: the Pike VM, lazy DFA and dense DFA must
//! all agree with the naive backtracking oracle on random patterns and
//! haystacks over a small alphabet (small alphabets maximize the chance of
//! overlapping matches and epsilon subtleties), and the production
//! [`Searcher`](free_regex::Searcher)'s DFA-only spans must equal what the
//! Pike VM and the oracle iterate. Longer haystacks (up to 300 bytes)
//! exercise what a 16-byte one never reaches: the positioned decision on
//! a pattern's suffix literal, down to the cap on its reverse walks.

use free_regex::dense::DenseDfa;
use free_regex::dfa::LazyDfa;
use free_regex::nfa::Nfa;
use free_regex::oracle;
use free_regex::pike::PikeVm;
use free_regex::{parse, Ast, Regex, Span};
use proptest::prelude::*;

/// Generates a random AST directly (avoids biasing toward what the string
/// parser happens to accept) over the alphabet {a, b, c}.
fn arb_ast() -> impl Strategy<Value = Ast> {
    let leaf = prop_oneof![
        Just(Ast::Empty),
        prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')].prop_map(Ast::byte),
        Just(Ast::Class(free_regex::ByteClass::range(b'a', b'b'))),
        Just(Ast::Class(free_regex::ByteClass::dot())),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..3).prop_map(Ast::concat),
            prop::collection::vec(inner.clone(), 2..3).prop_map(Ast::alternate),
            (inner.clone(), 0u32..3, 0u32..3).prop_map(|(n, min, extra)| Ast::Repeat {
                node: Box::new(n),
                min,
                max: Some(min + extra),
            }),
            inner.prop_map(Ast::star),
        ]
    })
}

/// Non-overlapping leftmost-longest iteration over a `find_at`, the way
/// `Searcher::find_all` defines it: after an empty match, step one byte.
fn iterate(hay: &[u8], mut find_at: impl FnMut(usize) -> Option<Span>) -> Vec<Span> {
    let mut out = Vec::new();
    let mut at = 0;
    while at <= hay.len() {
        let Some(span) = find_at(at) else { break };
        at = if span.is_empty() {
            span.end + 1
        } else {
            span.end
        };
        out.push(span);
    }
    out
}

fn arb_haystack() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(
        prop_oneof![Just(b'a'), Just(b'b'), Just(b'c'), Just(b'x')],
        0..16,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn engines_agree_with_oracle(ast in arb_ast(), hay in arb_haystack()) {
        let nfa = Nfa::compile(&ast).expect("compiles");
        let mut vm = PikeVm::new(&nfa);
        let mut lazy = LazyDfa::new(&nfa);
        let dense = DenseDfa::build(&nfa).expect("dense builds");

        let want = oracle::is_match(&ast, &hay);
        prop_assert_eq!(vm.is_match(&nfa, &hay), want, "pike {:?}", ast);
        prop_assert_eq!(lazy.is_match(&nfa, &hay), want, "lazy {:?}", ast);
        prop_assert_eq!(dense.is_match(&hay), want, "dense {:?}", ast);
    }

    #[test]
    fn pike_find_matches_oracle(ast in arb_ast(), hay in arb_haystack()) {
        let nfa = Nfa::compile(&ast).expect("compiles");
        let mut vm = PikeVm::new(&nfa);
        let got = vm.find_at(&nfa, &hay, 0);
        let want = oracle::find_at(&ast, &hay, 0);
        prop_assert_eq!(got, want, "ast {:?} hay {:?}", ast, hay);
    }

    /// The production span path (three lazy DFAs, no Pike VM) against
    /// both references, with the default cache and with one so small it
    /// resets mid-document. Nullable patterns, empty matches at the end
    /// of input and empty haystacks all come out of `arb_ast` /
    /// `arb_haystack` (`ε`, `x*`, `{0,n}` and length 0 are in range).
    #[test]
    fn dfa_spans_match_pike_and_oracle(
        ast in arb_ast(),
        hay in arb_haystack(),
        state_limit in 2usize..8,
    ) {
        let rendered = render(&ast);
        let re = Regex::new(&rendered).expect("rendering parses");
        let nfa = Nfa::compile(re.ast()).expect("compiles");
        let mut vm = PikeVm::new(&nfa);
        let pike = iterate(&hay, |at| vm.find_at(&nfa, &hay, at));
        let oracle = iterate(&hay, |at| oracle::find_at(re.ast(), &hay, at));
        prop_assert_eq!(&pike, &oracle, "references disagree on {}", rendered);

        for mut searcher in [re.searcher(), re.searcher_with_state_limit(state_limit)] {
            // Twice: the second run reuses whatever the caches hold.
            for _ in 0..2 {
                let got: Vec<Span> = searcher.find_all(&hay).iter().map(|m| m.span()).collect();
                prop_assert_eq!(&got, &pike, "find_all on {} over {:?}", rendered, hay);
                prop_assert_eq!(searcher.find(&hay).map(|m| m.span()), pike.first().copied());
                prop_assert_eq!(searcher.is_match(&hay), !pike.is_empty());
            }
        }
    }

    #[test]
    fn minimized_dfa_equivalent(ast in arb_ast(), hay in arb_haystack()) {
        let nfa = Nfa::compile(&ast).expect("compiles");
        let dense = DenseDfa::build(&nfa).expect("dense builds");
        let min = dense.minimize();
        prop_assert_eq!(dense.shortest_match(&hay), min.shortest_match(&hay));
        prop_assert!(min.num_states() <= dense.num_states());
    }

    #[test]
    fn tiny_dfa_cache_still_correct(ast in arb_ast(), hay in arb_haystack()) {
        let nfa = Nfa::compile(&ast).expect("compiles");
        let mut small = LazyDfa::with_state_limit(&nfa, 2);
        prop_assert_eq!(small.is_match(&nfa, &hay), oracle::is_match(&ast, &hay));
    }
}

fn arb_letter() -> impl Strategy<Value = u8> {
    prop_oneof![Just(b'a'), Just(b'b'), Just(b'c'), Just(b'x')]
}

/// The regex syntax of `ast` (ε, Debug-only notation, as the empty group).
fn render(ast: &Ast) -> String {
    format!("{ast:?}").replace('ε', "()")
}

proptest! {
    // About one case in seventy reaches the cap on the reverse walks.
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// A pattern that ends with a literal of two to four bytes, over
    /// haystacks of one to four letters with that literal planted up to
    /// eight times: the
    /// positioned decision (and the forward pass it falls back to) must
    /// give the Pike VM's answers, at any cache size.
    #[test]
    fn positioned_decision_matches_pike(
        ast in arb_ast(),
        suffix in prop::collection::vec(arb_letter(), 2..=4),
        letters in 1usize..=4,
        hay in prop::collection::vec(any::<usize>(), 0..=300),
        plants in prop::collection::vec(any::<usize>(), 0..=8),
        state_limit in 2usize..8,
    ) {
        // Fewer letters leave the pattern's head nothing to match but the
        // planted literals, so walks run long and reach the cap.
        let mut hay: Vec<u8> = hay.iter().map(|i| b"xabc"[i % letters]).collect();
        let pattern = format!("({}){}", render(&ast), String::from_utf8_lossy(&suffix));
        let re = Regex::new(&pattern).expect("rendering parses");
        prop_assert!(free_regex::literal::suffix_literal(re.ast()).is_some(), "{}", pattern);
        if hay.len() >= suffix.len() {
            for plant in &plants {
                let at = plant % (hay.len() - suffix.len() + 1);
                hay[at..at + suffix.len()].copy_from_slice(&suffix);
            }
        }
        let mut vm = PikeVm::new(re.nfa());
        let pike = iterate(&hay, |at| vm.find_at(re.nfa(), &hay, at));
        for mut searcher in [re.searcher(), re.searcher_with_state_limit(state_limit)] {
            prop_assert_eq!(searcher.is_match(&hay), !pike.is_empty(), "{} over {:?}", pattern, hay);
            let got: Vec<Span> = searcher.find_all(&hay).iter().map(|m| m.span()).collect();
            prop_assert_eq!(&got, &pike, "{} over {:?}", pattern, hay);
            prop_assert_eq!(searcher.find(&hay).map(|m| m.span()), pike.first().copied());
        }
    }

    /// Long haystacks whose letters sit sparsely among bytes the pattern
    /// never consumes (a space, `z`, and two bytes above ASCII, one of
    /// them `a` with its top bit set), so the automata pass over whole
    /// idle words, forwards for the decision and backwards for the match
    /// starts: answers must still be the Pike VM's, at any cache size.
    #[test]
    fn idle_words_are_passed_without_changing_spans(
        ast in arb_ast(),
        hay in prop::collection::vec((any::<usize>(), any::<usize>()), 0..=300),
        sparsity in 1usize..40,
        state_limit in 2usize..8,
    ) {
        let hay: Vec<u8> = hay
            .iter()
            .map(|&(i, j)| if i % sparsity == 0 { b"abc"[j % 3] } else { [b' ', b'z', 0xe1, 0xff][j % 4] })
            .collect();
        let rendered = render(&ast);
        let re = Regex::new(&rendered).expect("rendering parses");
        let mut vm = PikeVm::new(re.nfa());
        let pike = iterate(&hay, |at| vm.find_at(re.nfa(), &hay, at));
        for mut searcher in [re.searcher(), re.searcher_with_state_limit(state_limit)] {
            prop_assert_eq!(searcher.is_match(&hay), !pike.is_empty(), "{} over {:?}", rendered, hay);
            let got: Vec<Span> = searcher.find_all(&hay).iter().map(|m| m.span()).collect();
            prop_assert_eq!(&got, &pike, "{} over {:?}", rendered, hay);
            prop_assert_eq!(searcher.find(&hay).map(|m| m.span()), pike.first().copied());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The string parser and Debug rendering round-trip: parse(render(ast))
    /// accepts/rejects the same haystacks.
    #[test]
    fn render_parse_roundtrip(ast in arb_ast(), hay in arb_haystack()) {
        let rendered = format!("{ast:?}");
        // ε is Debug-only notation, not parseable syntax; skip those.
        prop_assume!(!rendered.contains('ε'));
        // `\xNN` renders already parse; dot renders as `.`.
        let reparsed = parse(&rendered);
        prop_assume!(reparsed.is_ok());
        let reparsed = reparsed.unwrap();
        prop_assert_eq!(
            oracle::is_match(&ast, &hay),
            oracle::is_match(&reparsed, &hay),
            "rendered: {}", rendered
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Brzozowski derivatives agree with the oracle, anchored and not.
    #[test]
    fn derivatives_agree_with_oracle(ast in arb_ast(), hay in arb_haystack()) {
        let mut m = free_regex::derivative::DerivativeMatcher::new();
        let want_exact = oracle::match_ends(&ast, &hay, 0).contains(&hay.len());
        prop_assert_eq!(m.matches_exact(&ast, &hay), want_exact, "{:?}", ast);
        prop_assert_eq!(m.is_match(&ast, &hay), oracle::is_match(&ast, &hay), "{:?}", ast);
    }

    /// Algorithm 4.1 Step \[1\]: the OR/STAR normal form matches exactly the
    /// same strings as the original expression.
    #[test]
    fn or_star_normal_form_preserves_language(ast in arb_ast(), hay in arb_haystack()) {
        let limits = free_regex::rewrite::RewriteLimits::default();
        let Some(normal) = free_regex::rewrite::to_or_star(&ast, &limits) else {
            return Ok(()); // over the expansion limit: rejection is allowed
        };
        prop_assert!(free_regex::rewrite::is_normal_form(&normal, &limits));
        for at in 0..=hay.len() {
            prop_assert_eq!(
                oracle::match_ends(&ast, &hay, at),
                oracle::match_ends(&normal, &hay, at),
                "at {} for {:?} → {:?}", at, ast, normal
            );
        }
    }
}
