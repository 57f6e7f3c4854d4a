//! Oracle test for the implication engine: [`ConjFacts`] (and the
//! `Conjunction` / `Dnf` methods that delegate to it) must answer exactly
//! what the per-call engine it replaced answered, on seeded conjunction
//! pairs built to hit every corner the summaries treat specially.
//!
//! The oracle is that engine, kept verbatim: per consequent predicate,
//! syntactic containment first, then a fresh [`AttrSummary`] of the
//! antecedent's attribute; unsatisfiability as "some attribute's summary
//! is empty". The production engine reorders those tests (summary first,
//! consequent walked from its end) and caches the summaries, none of
//! which may change a single answer.

// Test harness: panicking on malformed fixtures is the failure mode we want.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use crr_core::{AttrSummary, ConjFacts, Conjunction, Dnf, Op, Predicate};
use crr_data::{AttrId, Value};
use crr_models::Translation;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const X: AttrId = AttrId(0);
const Y: AttrId = AttrId(1);

/// Built-in equality with `None` as the identity.
fn oracle_builtin_eq(a: Option<&Translation>, b: Option<&Translation>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(t), None) | (None, Some(t)) => t.is_identity(),
        (Some(x), Some(y)) => x == y,
    }
}

/// The reference `a ⊢ b`.
fn oracle_implies(a: &Conjunction, b: &Conjunction) -> bool {
    if !oracle_builtin_eq(a.builtin(), b.builtin()) {
        return false;
    }
    if oracle_unsat(a) {
        return true;
    }
    b.preds().iter().all(|p| {
        a.preds().contains(p) || AttrSummary::from_conjunction(a, p.attr).implies(p.op, &p.value)
    })
}

/// The reference unsatisfiability test.
fn oracle_unsat(c: &Conjunction) -> bool {
    c.attrs()
        .into_iter()
        .any(|a| AttrSummary::from_conjunction(c, a).is_unsat())
}

/// Constants: Int and Float of equal value, both zeros, strings, a null
/// comparison constant and a NaN float (which `Value`'s constructors
/// never build, but the enum admits).
fn constant(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..12) {
        0 => Value::Int(5),
        1 => Value::Float(5.0),
        2 => Value::Int(0),
        3 => Value::Float(0.0),
        4 => Value::Float(-0.0),
        5 => Value::Int(-3),
        6 => Value::Float(2.5),
        7 => Value::Int(8),
        8 => Value::str("a"),
        9 => Value::str("b"),
        10 => Value::Null,
        _ => {
            if rng.gen_bool(0.5) {
                Value::Float(f64::NAN)
            } else {
                Value::Float(7.5)
            }
        }
    }
}

fn predicate(rng: &mut StdRng) -> Predicate {
    let attr = if rng.gen_bool(0.7) { X } else { Y };
    let op = match rng.gen_range(0..10) {
        0 | 1 => Op::Ne, // ≠ lists
        2 => Op::Eq,
        3 => Op::Gt,
        4 => Op::Ge,
        5 => Op::Lt,
        6 => Op::Le,
        7 => return Predicate::is_null(attr),
        8 => return Predicate::not_null(attr),
        _ => Op::Lt,
    };
    Predicate::new(attr, op, constant(rng))
}

/// `None`, the identity (which must equal `None`) or one of two shifts.
fn builtin(rng: &mut StdRng) -> Option<Translation> {
    match rng.gen_range(0..4) {
        0 => None,
        1 => Some(Translation::identity(1)),
        k => Some(Translation {
            delta_x: vec![k as f64],
            delta_y: 0.0,
        }),
    }
}

fn conjunction(preds: Vec<Predicate>, builtin: Option<Translation>) -> Conjunction {
    match builtin {
        Some(t) => Conjunction::with_builtin(preds, t),
        None => Conjunction::of(preds),
    }
}

/// An antecedent of 0..6 predicates (so ⊤ appears), sometimes forced
/// provably unsatisfiable.
fn antecedent(rng: &mut StdRng) -> Conjunction {
    let n = rng.gen_range(0..6);
    let mut preds: Vec<Predicate> = (0..n).map(|_| predicate(rng)).collect();
    if rng.gen_bool(0.1) {
        preds.push(Predicate::gt(X, Value::Int(5)));
        preds.push(Predicate::lt(X, Value::Float(0.0)));
    }
    conjunction(preds, builtin(rng))
}

/// A consequent: independent, a shuffled subset of the antecedent (so
/// implication and containment often hold), or such a subset plus fresh
/// predicates.
fn consequent(rng: &mut StdRng, a: &Conjunction) -> Conjunction {
    let mut preds: Vec<Predicate> = match rng.gen_range(0..3) {
        0 => (0..rng.gen_range(0..4)).map(|_| predicate(rng)).collect(),
        _ => a
            .preds()
            .iter()
            .filter(|_| rng.gen_bool(0.6))
            .cloned()
            .collect(),
    };
    if rng.gen_bool(0.3) {
        preds.push(predicate(rng));
    }
    for i in (1..preds.len()).rev() {
        preds.swap(i, rng.gen_range(0..i + 1));
    }
    let b = if rng.gen_bool(0.5) {
        a.builtin().cloned()
    } else {
        builtin(rng)
    };
    conjunction(preds, b)
}

#[test]
fn conj_facts_match_the_per_call_oracle() {
    let mut rng = StdRng::seed_from_u64(0x1A7E_5EED);
    // How often each corner decided an answer; each must be reached.
    let (mut implied, mut refuted, mut unsat) = (0, 0, 0);
    let (mut by_containment, mut by_builtins, mut by_unsat) = (0, 0, 0);
    for _ in 0..20_000 {
        let a = antecedent(&mut rng);
        let b = consequent(&mut rng, &a);
        let facts = ConjFacts::new(&a);
        let expected = oracle_implies(&a, &b);
        assert_eq!(facts.implies(&b), expected, "{a:?} ⊢ {b:?}");
        assert_eq!(a.implies(&b), expected, "{a:?} ⊢ {b:?}");
        let bare_a = Conjunction::of(a.preds().to_vec());
        let bare_b = Conjunction::of(b.preds().to_vec());
        let coverage = oracle_implies(&bare_a, &bare_b);
        assert_eq!(
            facts.implies_preds(b.preds()),
            coverage,
            "{a:?} ⊢ {:?}",
            b.preds()
        );
        let dead = oracle_unsat(&a);
        assert_eq!(facts.is_provably_unsat(), dead, "{a:?}");
        assert_eq!(a.is_provably_unsat(), dead, "{a:?}");

        if expected {
            implied += 1;
        } else {
            refuted += 1;
        }
        unsat += dead as usize;
        by_builtins += (coverage && !expected) as usize;
        // Only the unsat shortcut proves a predicate on an attribute the
        // antecedent never mentions.
        let foreign = b
            .preds()
            .iter()
            .any(|p| a.preds().iter().all(|q| q.attr != p.attr));
        by_unsat += (expected && dead && foreign) as usize;
        let contained_only = b.preds().iter().any(|p| {
            a.preds().contains(p)
                && !AttrSummary::from_conjunction(&a, p.attr).implies(p.op, &p.value)
        });
        by_containment += (coverage && !dead && contained_only) as usize;
    }
    assert!(implied > 2_000 && refuted > 2_000, "{implied}/{refuted}");
    assert!(unsat > 500, "{unsat} unsat antecedents");
    assert!(by_unsat > 200, "{by_unsat} answers decided by unsat");
    assert!(
        by_containment > 50,
        "{by_containment} decided by containment"
    );
    assert!(by_builtins > 500, "{by_builtins} decided by built-ins");
}

#[test]
fn dnf_implication_matches_the_oracle() {
    let mut rng = StdRng::seed_from_u64(0xD1F_5EED);
    for _ in 0..3_000 {
        let d1: Vec<Conjunction> = (0..rng.gen_range(0..3))
            .map(|_| antecedent(&mut rng))
            .collect();
        let d2: Vec<Conjunction> = (0..rng.gen_range(0..3))
            .map(|k| match d1.get(k) {
                Some(a) => consequent(&mut rng, a),
                None => antecedent(&mut rng),
            })
            .collect();
        let expected = d1
            .iter()
            .all(|c1| d2.iter().any(|c2| oracle_implies(c1, c2)));
        assert_eq!(
            Dnf::of(d1.clone()).implies(&Dnf::of(d2.clone())),
            expected,
            "{d1:?} ⊢ {d2:?}"
        );
    }
}

#[test]
fn containment_proves_what_the_summary_cannot() {
    // A null comparison constant: no summary can order it.
    let c = Conjunction::of(vec![Predicate::lt(X, Value::Null)]);
    assert!(!AttrSummary::from_conjunction(&c, X).implies(Op::Lt, &Value::Null));
    assert!(ConjFacts::new(&c).implies(&c));
    // Mixed kinds on one attribute leave the summary incomparable.
    let mixed = Conjunction::of(vec![
        Predicate::lt(X, Value::str("m")),
        Predicate::lt(X, Value::Int(3)),
    ]);
    assert!(AttrSummary::from_conjunction(&mixed, X).incomparable());
    assert!(ConjFacts::new(&mixed).implies_preds(&[Predicate::lt(X, Value::Int(3))]));
    // Int and Float constants of one value are one predicate.
    let five = Conjunction::of(vec![Predicate::le(X, Value::Int(5))]);
    assert!(ConjFacts::new(&five).implies_preds(&[Predicate::le(X, Value::Float(5.0))]));
}

#[test]
fn implies_preds_ignores_built_ins() {
    let shifted = Conjunction::with_builtin(
        vec![Predicate::ge(X, Value::Int(1))],
        Translation {
            delta_x: vec![2.0],
            delta_y: 0.0,
        },
    );
    let plain = Conjunction::of(vec![Predicate::ge(X, Value::Int(0))]);
    let facts = ConjFacts::new(&shifted);
    assert!(!facts.implies(&plain));
    assert!(facts.implies_preds(plain.preds()));
    assert!(facts.implies(&shifted));
}
