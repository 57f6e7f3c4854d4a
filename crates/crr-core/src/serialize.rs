//! Plain-text serialization of rule sets, for interchange and inspection.
//!
//! An extension beyond the paper: discovered rule sets can be written to
//! disk and reloaded, so downstream applications (e.g. imputation services)
//! need not rerun discovery. The format is line-oriented:
//!
//! ```text
//! crr-ruleset v1
//! rule target=#1 inputs=#0 rho=0.5 model=linear 1.0 10.0
//! conj pred #0 >= i:100 ; pred #0 < i:200
//! conj pred #0 >= i:830 ; builtin x=-744 y=0
//! end
//! ```
//!
//! Attribute references are positional (`#idx`) so a rule set is valid for
//! any table with a compatible schema.

use crate::{Conjunction, CoreError, Crr, Dnf, Op, Predicate, Result, RuleSet};
use crr_data::{AttrId, Value};
use crr_models::{ConstantModel, LinearModel, MlpModel, Model, RidgeModel, Translation};
use std::fmt::Write as _;
use std::sync::Arc;

/// Serializes a rule set to the text format.
pub fn to_text(rules: &RuleSet) -> String {
    let mut out = String::from("crr-ruleset v1\n");
    for rule in rules.rules() {
        let _ = write!(out, "rule target=#{} inputs=", rule.target().0);
        for (i, a) in rule.inputs().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "#{}", a.0);
        }
        let _ = write!(out, " rho={:?} model=", rule.rho());
        write_model(&mut out, rule.model());
        out.push('\n');
        for c in rule.condition().conjuncts() {
            out.push_str("conj");
            let mut first = true;
            for p in c.preds() {
                out.push_str(if first { " " } else { " ; " });
                first = false;
                let _ = write!(out, "pred {}", encode_predicate(p));
            }
            if let Some(b) = c.builtin() {
                out.push_str(if first { " " } else { " ; " });
                out.push_str("builtin x=");
                for (i, d) in b.delta_x.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{d:?}");
                }
                let _ = write!(out, " y={:?}", b.delta_y);
            }
            out.push('\n');
        }
        out.push_str("end\n");
    }
    out
}

/// Encodes one predicate in the grammar `conj` lines use: `#idx op value`
/// (e.g. `#0 >= f:5760`, `#2 is-null n:`). [`decode_predicate`] is the
/// inverse. Exposed so sibling formats (the serving artifact's shard-guard
/// obligations) share one predicate grammar with the rule-set format.
pub fn encode_predicate(p: &Predicate) -> String {
    format!("#{} {} {}", p.attr.0, p.op, encode_value(&p.value))
}

/// Parses a predicate in the [`encode_predicate`] grammar.
pub fn decode_predicate(s: &str) -> Result<Predicate> {
    let parts: Vec<&str> = s.split_whitespace().collect();
    if parts.len() != 3 {
        return Err(CoreError::SchemaMismatch(format!("bad predicate: {s}")));
    }
    Ok(Predicate::new(
        parse_attr(parts[0])?,
        parse_op(parts[1])?,
        decode_value(parts[2])?,
    ))
}

fn write_model(out: &mut String, model: &Model) {
    match model {
        Model::Constant(m) => {
            let _ = write!(out, "const {:?}", m.value());
        }
        Model::Linear(m) => {
            out.push_str("linear");
            for w in m.weights() {
                let _ = write!(out, " {w:?}");
            }
            let _ = write!(out, " {:?}", m.intercept());
        }
        Model::Ridge(m) => {
            let _ = write!(out, "ridge {:?}", m.lambda());
            for w in m.weights() {
                let _ = write!(out, " {w:?}");
            }
            let _ = write!(out, " {:?}", m.intercept());
        }
        Model::Mlp(m) => {
            let (hidden, params) = m.flatten();
            let _ = write!(
                out,
                "mlp {} {}",
                crr_models::Regressor::num_inputs(m),
                hidden
            );
            for p in params {
                let _ = write!(out, " {p:?}");
            }
        }
    }
}

fn encode_value(v: &Value) -> String {
    match v {
        Value::Null => "n:".into(),
        Value::Int(i) => format!("i:{i}"),
        Value::Float(f) => format!("f:{f:?}"),
        Value::Str(s) => format!("s:{s}"),
    }
}

fn decode_value(s: &str) -> Result<Value> {
    let err = || CoreError::SchemaMismatch(format!("bad value literal: {s}"));
    let (tag, body) = s.split_once(':').ok_or_else(err)?;
    match tag {
        "n" => Ok(Value::Null),
        "i" => body.parse().map(Value::Int).map_err(|_| err()),
        "f" => body.parse().map(Value::Float).map_err(|_| err()),
        "s" => Ok(Value::str(body)),
        _ => Err(err()),
    }
}

fn parse_op(s: &str) -> Result<Op> {
    match s {
        "=" => Ok(Op::Eq),
        "!=" => Ok(Op::Ne),
        ">" => Ok(Op::Gt),
        ">=" => Ok(Op::Ge),
        "<" => Ok(Op::Lt),
        "<=" => Ok(Op::Le),
        "is-null" => Ok(Op::IsNull),
        "not-null" => Ok(Op::NotNull),
        _ => Err(CoreError::SchemaMismatch(format!("bad operator: {s}"))),
    }
}

fn parse_attr(s: &str) -> Result<AttrId> {
    s.strip_prefix('#')
        .and_then(|n| n.parse().ok())
        .map(AttrId)
        .ok_or_else(|| CoreError::SchemaMismatch(format!("bad attribute ref: {s}")))
}

fn parse_f64s(items: &[&str]) -> Result<Vec<f64>> {
    items
        .iter()
        .map(|s| {
            s.parse()
                .map_err(|_| CoreError::SchemaMismatch(format!("bad number: {s}")))
        })
        .collect()
}

fn parse_model(tokens: &[&str]) -> Result<Model> {
    let bad = || CoreError::SchemaMismatch("malformed model".into());
    match tokens.first().copied() {
        Some("const") => {
            let v: f64 = tokens.get(1).and_then(|s| s.parse().ok()).ok_or_else(bad)?;
            // Arity is re-established by the rule's inputs on load.
            Ok(Model::Constant(ConstantModel::new(v, 0)))
        }
        Some("linear") => {
            let nums = parse_f64s(&tokens[1..])?;
            let (b, w) = nums.split_last().ok_or_else(bad)?;
            Ok(Model::Linear(LinearModel::new(w.to_vec(), *b)))
        }
        Some("ridge") => {
            let nums = parse_f64s(&tokens[1..])?;
            if nums.len() < 2 {
                return Err(bad());
            }
            let lambda = nums[0];
            let (b, w) = nums[1..].split_last().ok_or_else(bad)?;
            Ok(Model::Ridge(RidgeModel::new(w.to_vec(), *b, lambda)))
        }
        Some("mlp") => {
            let d: usize = tokens.get(1).and_then(|s| s.parse().ok()).ok_or_else(bad)?;
            let hidden: usize = tokens.get(2).and_then(|s| s.parse().ok()).ok_or_else(bad)?;
            let params = parse_f64s(&tokens[3..])?;
            MlpModel::from_flat(d, hidden, &params)
                .map(Model::Mlp)
                .map_err(|e| CoreError::SchemaMismatch(e.to_string()))
        }
        _ => Err(bad()),
    }
}

/// Parses the text format back into a rule set.
pub fn from_text(text: &str) -> Result<RuleSet> {
    let mut lines = text.lines().peekable();
    match lines.next() {
        Some("crr-ruleset v1") => {}
        _ => return Err(CoreError::SchemaMismatch("missing ruleset header".into())),
    }
    let mut rules = Vec::new();
    while let Some(line) = lines.next() {
        if line.trim().is_empty() {
            continue;
        }
        let rest = line
            .strip_prefix("rule ")
            .ok_or_else(|| CoreError::SchemaMismatch(format!("expected rule line, got: {line}")))?;
        let mut target = None;
        let mut inputs = Vec::new();
        let mut rho = None;
        let mut model_tokens: Option<Vec<&str>> = None;
        let tokens: Vec<&str> = rest.split_whitespace().collect();
        let mut i = 0;
        while i < tokens.len() {
            let t = tokens[i];
            if let Some(v) = t.strip_prefix("target=") {
                target = Some(parse_attr(v)?);
            } else if let Some(v) = t.strip_prefix("inputs=") {
                for part in v.split(',').filter(|p| !p.is_empty()) {
                    inputs.push(parse_attr(part)?);
                }
            } else if let Some(v) = t.strip_prefix("rho=") {
                rho = v.parse().ok();
            } else if let Some(v) = t.strip_prefix("model=") {
                let mut mt = vec![v];
                mt.extend_from_slice(&tokens[i + 1..]);
                model_tokens = Some(mt);
                break;
            }
            i += 1;
        }
        let target = target.ok_or_else(|| CoreError::SchemaMismatch("rule lacks target".into()))?;
        let rho = rho.ok_or_else(|| CoreError::SchemaMismatch("rule lacks rho".into()))?;
        let mut model = parse_model(
            &model_tokens.ok_or_else(|| CoreError::SchemaMismatch("rule lacks model".into()))?,
        )?;
        // Constants lose their arity in the text form; restore from inputs.
        if let Model::Constant(c) = &model {
            model = Model::Constant(ConstantModel::new(c.value(), inputs.len()));
        }

        let mut conjuncts = Vec::new();
        loop {
            let line = lines
                .next()
                .ok_or_else(|| CoreError::SchemaMismatch("unterminated rule".into()))?;
            if line == "end" {
                break;
            }
            let body = line
                .strip_prefix("conj")
                .ok_or_else(|| CoreError::SchemaMismatch(format!("expected conj line: {line}")))?;
            let mut preds = Vec::new();
            let mut builtin = None;
            for item in body.split(';').map(str::trim).filter(|s| !s.is_empty()) {
                let parts: Vec<&str> = item.split_whitespace().collect();
                match parts.first().copied() {
                    Some("pred") if parts.len() == 4 => {
                        preds.push(Predicate::new(
                            parse_attr(parts[1])?,
                            parse_op(parts[2])?,
                            decode_value(parts[3])?,
                        ));
                    }
                    Some("builtin") if parts.len() == 3 => {
                        let xs = parts[1]
                            .strip_prefix("x=")
                            .ok_or_else(|| CoreError::SchemaMismatch("bad builtin".into()))?;
                        let delta_x = if xs.is_empty() {
                            Vec::new()
                        } else {
                            parse_f64s(&xs.split(',').collect::<Vec<_>>())?
                        };
                        let delta_y: f64 = parts[2]
                            .strip_prefix("y=")
                            .and_then(|s| s.parse().ok())
                            .ok_or_else(|| CoreError::SchemaMismatch("bad builtin".into()))?;
                        builtin = Some(Translation { delta_x, delta_y });
                    }
                    _ => {
                        return Err(CoreError::SchemaMismatch(format!(
                            "malformed conjunct item: {item}"
                        )))
                    }
                }
            }
            conjuncts.push(match builtin {
                Some(b) => Conjunction::with_builtin(preds, b),
                None => Conjunction::of(preds),
            });
        }
        rules.push(Crr::new(
            inputs,
            target,
            Arc::new(model),
            rho,
            Dnf::of(conjuncts),
        )?);
    }
    Ok(RuleSet::from_rules(rules))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crr_data::{AttrType, Schema, Table};

    fn sample_rules() -> RuleSet {
        let date = AttrId(0);
        let lat = AttrId(1);
        let m = Arc::new(Model::Linear(LinearModel::new(vec![-0.75], 60.0)));
        let cond = Dnf::of(vec![
            Conjunction::of(vec![
                Predicate::ge(date, Value::Int(100)),
                Predicate::lt(date, Value::Int(200)),
            ]),
            Conjunction::with_builtin(
                vec![Predicate::ge(date, Value::Int(830))],
                Translation {
                    delta_x: vec![-744.0],
                    delta_y: 0.5,
                },
            ),
        ]);
        let r1 = Crr::new(vec![date], lat, m, 0.5, cond).unwrap();
        let c = Arc::new(Model::Constant(ConstantModel::new(60.1, 1)));
        let r2 = Crr::new(
            vec![date],
            lat,
            c,
            0.25,
            Dnf::single(Conjunction::of(vec![Predicate::eq(
                AttrId(2),
                Value::str("maria"),
            )])),
        )
        .unwrap();
        RuleSet::from_rules(vec![r1, r2])
    }

    #[test]
    fn roundtrip_preserves_rules() {
        let rules = sample_rules();
        let text = to_text(&rules);
        let back = from_text(&text).unwrap();
        assert_eq!(back.len(), rules.len());
        for (a, b) in rules.rules().iter().zip(back.rules()) {
            assert_eq!(a.inputs(), b.inputs());
            assert_eq!(a.target(), b.target());
            assert_eq!(a.rho(), b.rho());
            assert_eq!(a.condition(), b.condition());
            assert_eq!(a.model().as_ref(), b.model().as_ref());
        }
    }

    #[test]
    fn roundtrip_preserves_null_test_predicates() {
        let date = AttrId(0);
        let m = Arc::new(Model::Constant(ConstantModel::new(1.0, 1)));
        let cond = Dnf::of(vec![
            Conjunction::of(vec![Predicate::is_null(date)]),
            Conjunction::of(vec![
                Predicate::not_null(date),
                Predicate::ge(date, Value::Int(5)),
            ]),
        ]);
        let rules =
            RuleSet::from_rules(vec![Crr::new(vec![date], AttrId(1), m, 0.5, cond).unwrap()]);
        let text = to_text(&rules);
        assert!(text.contains("is-null"), "missing is-null token:\n{text}");
        assert!(text.contains("not-null"), "missing not-null token:\n{text}");
        let back = from_text(&text).unwrap();
        assert_eq!(
            rules.rules()[0].condition(),
            back.rules()[0].condition(),
            "null-test predicates must survive the text roundtrip"
        );
    }

    #[test]
    fn roundtrip_preserves_predictions() {
        let schema = Schema::new(vec![
            ("date", AttrType::Int),
            ("lat", AttrType::Float),
            ("bird", AttrType::Str),
        ]);
        let mut t = Table::new(schema);
        t.push_row(vec![Value::Int(150), Value::Float(0.0), Value::str("x")])
            .unwrap();
        t.push_row(vec![
            Value::Int(900),
            Value::Float(0.0),
            Value::str("maria"),
        ])
        .unwrap();
        let rules = sample_rules();
        let back = from_text(&to_text(&rules)).unwrap();
        for row in 0..t.num_rows() {
            assert_eq!(rules.predict(&t, row,), back.predict(&t, row,),);
        }
    }

    #[test]
    fn mlp_roundtrip() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = xs.iter().map(|x| x[0] * 0.5).collect();
        let mlp = MlpModel::fit(&xs, &y, &crr_models::MlpConfig::default()).unwrap();
        let rule = Crr::new(
            vec![AttrId(0)],
            AttrId(1),
            Arc::new(Model::Mlp(mlp)),
            1.0,
            Dnf::tautology(),
        )
        .unwrap();
        let set = RuleSet::from_rules(vec![rule]);
        let back = from_text(&to_text(&set)).unwrap();
        assert_eq!(
            set.rules()[0].model().as_ref(),
            back.rules()[0].model().as_ref()
        );
    }

    #[test]
    fn predicate_grammar_round_trips() {
        let preds = vec![
            Predicate::ge(AttrId(0), Value::Float(5760.0)),
            Predicate::lt(AttrId(3), Value::Int(-7)),
            Predicate::eq(AttrId(2), Value::str("maria")),
            Predicate::is_null(AttrId(1)),
            Predicate::not_null(AttrId(1)),
        ];
        for p in &preds {
            let enc = encode_predicate(p);
            let back = decode_predicate(&enc).unwrap();
            assert_eq!(p, &back, "grammar must round-trip: {enc}");
        }
        assert!(decode_predicate("#0 >=").is_err());
        assert!(decode_predicate("#0 ?? i:1").is_err());
        assert!(decode_predicate("zero >= i:1").is_err());
    }

    #[test]
    fn bad_inputs_rejected() {
        assert!(from_text("nope").is_err());
        assert!(from_text("crr-ruleset v1\nrule target=#0 inputs=#1 rho=x model=const 1").is_err());
        assert!(from_text("crr-ruleset v1\nrule target=#1 inputs=#0 rho=0.5 model=linear 1.0 0.0\nconj pred #0 ?? i:1\nend").is_err());
    }

    #[test]
    fn float_precision_survives() {
        let m = Arc::new(Model::Linear(LinearModel::new(vec![0.1 + 0.2], 1e-300)));
        let r = Crr::new(
            vec![AttrId(0)],
            AttrId(1),
            m,
            f64::MIN_POSITIVE,
            Dnf::tautology(),
        )
        .unwrap();
        let set = RuleSet::from_rules(vec![r]);
        let back = from_text(&to_text(&set)).unwrap();
        assert_eq!(
            set.rules()[0].model().as_ref(),
            back.rules()[0].model().as_ref()
        );
        assert_eq!(set.rules()[0].rho(), back.rules()[0].rho());
    }
}
