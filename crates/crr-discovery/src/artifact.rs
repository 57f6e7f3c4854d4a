//! The serving artifact: a self-describing bundle of schema, compacted
//! rule set, and shard-guard proof obligations, serialized as one text
//! document.
//!
//! The rule-set text format (`crr-ruleset v1`, [`crr_core::serialize`])
//! references attributes positionally, so it only makes sense against a
//! known schema — and the static verifier's guard-soundness check (A3)
//! only runs when the shard obligations travel with the rules. This module
//! bundles all three so a serving process can load one file, re-verify it
//! in-process with `crr-analyze`, and answer requests against it. The
//! format is line-oriented, one section per concern:
//!
//! ```text
//! crr-artifact v1
//! attr float minute
//! attr float global_active_power
//! obligations key=#0 boundary=quantile
//! guard shard=0 lo=- hi=5760 null=false pred #0 < f:5760
//! guard shard=1 lo=5760 hi=- null=false pred #0 >= f:5760
//! rules
//! crr-ruleset v1
//! ...
//! ```
//!
//! The `obligations`/`guard` lines are optional (single-shard runs apply
//! no guards); guard predicates reuse the rule format's predicate grammar
//! via [`crr_core::serialize::encode_predicate`]. The required
//! `boundary=` token records how the plan's interval boundaries were
//! derived ([`crr_data::Boundary`]).
//!
//! A repaired artifact produced by `crr-stream` additionally carries
//! [`RepairObligations`] — the splice's machine-checkable claims — as a
//! `repair` line plus one `region` line per affected region (a drifted
//! conjunct), between the shard guards and the rules:
//!
//! ```text
//! repair kept=12
//! region id=0 origin=drifted rule=4 conj=0 pred #0 >= f:10 ; pred #0 < f:20
//! region id=1 origin=drifted rule=4 conj=1 pred #0 >= f:5760
//! ```
//!
//! `kept` counts the healthy rules carried over unchanged (they occupy
//! the set's leading indices); every later rule was rediscovered inside
//! one of the claimed regions, under the region's guard predicates. The
//! static verifier's A7 check audits these claims row-free, so a splice
//! that over- or under-claims is refused at `crr-serve`'s swap gate.

use crate::sharded::{ProofObligations, ShardGuard};
use crate::{DiscoveryError, Result};
use crr_core::serialize::{decode_predicate, encode_predicate, from_text as rules_from_text};
use crr_core::{CoreError, Predicate, RuleSet};
use crr_data::{AttrId, AttrType, Boundary, Schema, ShardBounds};
use std::fmt::Write as _;

/// One affected region a repair re-ran discovery inside: a drifted
/// conjunct of the pre-repair rule set. `rule`/`conjunct` index the set
/// the repair *replaced* — provenance for operators, not references into
/// the spliced set.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairRegion {
    /// Dense region index, in emission order.
    pub region_id: usize,
    /// Index of the drifted rule in the pre-repair set.
    pub rule: usize,
    /// Index of the drifted conjunct within that rule's condition.
    pub conjunct: usize,
    /// The drifted conjunct's own predicates, re-ANDed onto every rule
    /// rediscovered in this region. Empty when the conjunct is `top` —
    /// the verifier then treats confinement as vacuous and flags the
    /// region as a hygiene finding.
    pub guards: Vec<Predicate>,
}

/// Proof obligations of a `crr-stream` repair splice: which rules were
/// kept verbatim and which regions the replacement rules are confined
/// to. Audited row-free by `crr-analyze`'s A7 check, exactly like the
/// shard [`ProofObligations`] are by A3.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairObligations {
    /// Healthy rules carried over unchanged; they occupy indices
    /// `0..kept` of the spliced set, and every rule at `kept..` was
    /// rediscovered inside some claimed region.
    pub kept: usize,
    /// The affected regions, dense by `region_id`.
    pub regions: Vec<RepairRegion>,
}

/// A schema + compacted rule set + obligations bundle — everything a
/// serving process needs to verify and answer from one rule set.
#[derive(Debug, Clone)]
pub struct RuleSetArtifact {
    /// The table schema the rule set's positional attribute references
    /// resolve against.
    pub schema: Schema,
    /// The (compacted) rule set.
    pub rules: RuleSet,
    /// Shard-guard obligations from the producing run, when it was
    /// sharded. Without them the verifier's guard-soundness check (A3)
    /// cannot run, so producers should always carry them through.
    pub obligations: Option<ProofObligations>,
    /// Repair-splice obligations, when the artifact came out of a
    /// `crr-stream` repair. Audited by the verifier's A7 check.
    pub repair: Option<RepairObligations>,
}

fn bad(what: impl Into<String>) -> DiscoveryError {
    DiscoveryError::Core(CoreError::SchemaMismatch(what.into()))
}

fn encode_bound(b: Option<f64>) -> String {
    match b {
        Some(v) => format!("{v:?}"),
        None => "-".to_string(),
    }
}

fn decode_bound(s: &str) -> Result<Option<f64>> {
    if s == "-" {
        return Ok(None);
    }
    s.parse()
        .map(Some)
        .map_err(|_| bad(format!("bad guard bound: {s}")))
}

fn decode_attr_type(s: &str) -> Result<AttrType> {
    match s {
        "int" => Ok(AttrType::Int),
        "float" => Ok(AttrType::Float),
        "str" => Ok(AttrType::Str),
        _ => Err(bad(format!("bad attribute type: {s}"))),
    }
}

impl RuleSetArtifact {
    /// Bundles the parts into an artifact, checking every positional
    /// attribute reference in `rules` and `obligations` resolves inside
    /// `schema`.
    pub fn new(
        schema: Schema,
        rules: RuleSet,
        obligations: Option<ProofObligations>,
    ) -> Result<Self> {
        let artifact = RuleSetArtifact {
            schema,
            rules,
            obligations,
            repair: None,
        };
        artifact.check_refs()?;
        Ok(artifact)
    }

    /// Attaches repair-splice obligations, re-checking every attribute
    /// reference (the region guards add new ones).
    pub fn with_repair(mut self, repair: RepairObligations) -> Result<Self> {
        self.repair = Some(repair);
        self.check_refs()?;
        Ok(self)
    }

    /// Verifies every attribute reference in the rules and obligations is
    /// within the schema. A serving process calls this at load time so a
    /// rule referencing `#7` of a 3-attribute schema is a typed error,
    /// never a later panic.
    pub fn check_refs(&self) -> Result<()> {
        let n = self.schema.len();
        // `what` names the reference; it is formatted only for a bad one.
        let check = |a: AttrId, what: &dyn Fn() -> String| -> Result<()> {
            if a.0 >= n {
                return Err(bad(format!(
                    "{} references attribute #{} but the schema has {n} attributes",
                    what(),
                    a.0
                )));
            }
            Ok(())
        };
        for (i, rule) in self.rules.rules().iter().enumerate() {
            check(rule.target(), &|| format!("rule {i} target"))?;
            for &a in rule.inputs() {
                check(a, &|| format!("rule {i} inputs"))?;
            }
            for c in rule.condition().conjuncts() {
                for p in c.preds() {
                    check(p.attr, &|| format!("rule {i} condition"))?;
                }
            }
        }
        if let Some(ob) = &self.obligations {
            check(ob.shard_key, &|| "obligations shard key".to_string())?;
            for g in &ob.guards {
                check(g.bounds.attr, &|| "shard guard bounds".to_string())?;
                for p in &g.guards {
                    check(p.attr, &|| "shard guard predicate".to_string())?;
                }
            }
        }
        if let Some(rep) = &self.repair {
            for r in &rep.regions {
                for p in &r.guards {
                    check(p.attr, &|| format!("repair region {} guard", r.region_id))?;
                }
            }
        }
        Ok(())
    }

    /// Serializes the artifact to the `crr-artifact v1` text format.
    pub fn to_text(&self) -> String {
        let mut out = String::from("crr-artifact v1\n");
        for (_, attr) in self.schema.iter() {
            let _ = writeln!(out, "attr {} {}", attr.ty(), attr.name());
        }
        if let Some(ob) = &self.obligations {
            let _ = writeln!(
                out,
                "obligations key=#{} boundary={}",
                ob.shard_key.0,
                ob.boundary.label()
            );
            for g in &ob.guards {
                let _ = write!(
                    out,
                    "guard shard={} lo={} hi={} null={}",
                    g.shard_id,
                    encode_bound(g.bounds.lo),
                    encode_bound(g.bounds.hi),
                    g.bounds.null_keys
                );
                for (i, p) in g.guards.iter().enumerate() {
                    out.push_str(if i == 0 { " " } else { " ; " });
                    let _ = write!(out, "pred {}", encode_predicate(p));
                }
                out.push('\n');
            }
        }
        if let Some(rep) = &self.repair {
            let _ = writeln!(out, "repair kept={}", rep.kept);
            for r in &rep.regions {
                let _ = write!(
                    out,
                    "region id={} origin=drifted rule={} conj={}",
                    r.region_id, r.rule, r.conjunct
                );
                for (i, p) in r.guards.iter().enumerate() {
                    out.push_str(if i == 0 { " " } else { " ; " });
                    let _ = write!(out, "pred {}", encode_predicate(p));
                }
                out.push('\n');
            }
        }
        out.push_str("rules\n");
        out.push_str(&crr_core::serialize::to_text(&self.rules));
        out
    }

    /// Parses the text format back into an artifact, re-checking every
    /// attribute reference against the embedded schema.
    pub fn from_text(text: &str) -> Result<Self> {
        let mut lines = text.lines();
        match lines.next() {
            Some("crr-artifact v1") => {}
            _ => return Err(bad("missing artifact header")),
        }
        let mut attrs: Vec<(String, AttrType)> = Vec::new();
        let mut obligations: Option<ProofObligations> = None;
        let mut repair: Option<RepairObligations> = None;
        let mut saw_rules_marker = false;
        for line in lines.by_ref() {
            if line == "rules" {
                saw_rules_marker = true;
                break;
            }
            if line.trim().is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("attr ") {
                let (ty, name) = rest
                    .split_once(' ')
                    .ok_or_else(|| bad(format!("bad attr line: {line}")))?;
                attrs.push((name.to_string(), decode_attr_type(ty)?));
            } else if let Some(rest) = line.strip_prefix("obligations ") {
                let (mut key, mut boundary) = (None, None);
                for tok in rest.split_whitespace() {
                    if let Some(n) = tok.strip_prefix("key=#") {
                        key = n.parse().ok().map(AttrId);
                    } else if let Some(b) = tok.strip_prefix("boundary=") {
                        boundary = Some(
                            Boundary::from_label(b)
                                .ok_or_else(|| bad(format!("bad obligations boundary: {b}")))?,
                        );
                    } else {
                        return Err(bad(format!("bad obligations token: {tok}")));
                    }
                }
                let (Some(shard_key), Some(boundary)) = (key, boundary) else {
                    return Err(bad(format!("bad obligations line: {line}")));
                };
                obligations = Some(ProofObligations {
                    shard_key,
                    boundary,
                    guards: Vec::new(),
                });
            } else if let Some(rest) = line.strip_prefix("guard ") {
                let ob = obligations
                    .as_mut()
                    .ok_or_else(|| bad("guard line before obligations line"))?;
                ob.guards.push(parse_guard(rest, ob.shard_key)?);
            } else if let Some(rest) = line.strip_prefix("repair ") {
                let mut kept = None;
                for tok in rest.split_whitespace() {
                    if let Some(n) = tok.strip_prefix("kept=") {
                        kept = n.parse::<usize>().ok();
                    } else {
                        return Err(bad(format!("bad repair token: {tok}")));
                    }
                }
                let kept = kept.ok_or_else(|| bad(format!("bad repair line: {line}")))?;
                repair = Some(RepairObligations {
                    kept,
                    regions: Vec::new(),
                });
            } else if let Some(rest) = line.strip_prefix("region ") {
                let rep = repair
                    .as_mut()
                    .ok_or_else(|| bad("region line before repair line"))?;
                rep.regions.push(parse_region(rest)?);
            } else {
                return Err(bad(format!("unexpected artifact line: {line}")));
            }
        }
        if !saw_rules_marker {
            return Err(bad("artifact lacks a rules section"));
        }
        if attrs.is_empty() {
            return Err(bad("artifact lacks a schema"));
        }
        let schema = Schema::new(attrs);
        let rest_offset = match text.find("\nrules\n") {
            Some(i) => i + "\nrules\n".len(),
            None => return Err(bad("artifact lacks a rules section")),
        };
        let rules = rules_from_text(&text[rest_offset..]).map_err(DiscoveryError::Core)?;
        let artifact = RuleSetArtifact::new(schema, rules, obligations)?;
        match repair {
            Some(rep) => artifact.with_repair(rep),
            None => Ok(artifact),
        }
    }
}

/// Parses one `region` line body (after the `region ` prefix).
fn parse_region(rest: &str) -> Result<RepairRegion> {
    // Fixed head fields, then the predicate list in `;`-separated grammar.
    let (head, preds_part) = match rest.find(" pred ") {
        Some(i) => (&rest[..i], Some(&rest[i..])),
        None => (rest, None),
    };
    let mut region_id = None;
    let mut drifted = false;
    let mut rule = None;
    let mut conjunct = None;
    for tok in head.split_whitespace() {
        if let Some(v) = tok.strip_prefix("id=") {
            region_id = v.parse::<usize>().ok();
        } else if let Some(v) = tok.strip_prefix("origin=") {
            // Every region is a drifted conjunct; no other origin exists.
            if v != "drifted" {
                return Err(bad(format!("bad region origin: {rest}")));
            }
            drifted = true;
        } else if let Some(v) = tok.strip_prefix("rule=") {
            rule = v.parse::<usize>().ok();
        } else if let Some(v) = tok.strip_prefix("conj=") {
            conjunct = v.parse::<usize>().ok();
        } else {
            return Err(bad(format!("bad region token: {tok}")));
        }
    }
    let (Some(region_id), true, Some(rule), Some(conjunct)) = (region_id, drifted, rule, conjunct)
    else {
        return Err(bad(format!("incomplete region line: {rest}")));
    };
    let mut guards = Vec::new();
    if let Some(part) = preds_part {
        for item in part.split(';').map(str::trim).filter(|s| !s.is_empty()) {
            let p = item
                .strip_prefix("pred ")
                .ok_or_else(|| bad(format!("bad region predicate item: {item}")))?;
            guards.push(decode_predicate(p).map_err(DiscoveryError::Core)?);
        }
    }
    Ok(RepairRegion {
        region_id,
        rule,
        conjunct,
        guards,
    })
}

fn parse_guard(rest: &str, shard_key: AttrId) -> Result<ShardGuard> {
    // Fixed head fields, then the predicate list in `;`-separated grammar.
    let (head, preds_part) = match rest.find(" pred ") {
        Some(i) => (&rest[..i], Some(&rest[i..])),
        None => (rest, None),
    };
    let mut shard_id = None;
    let mut lo = None;
    let mut hi = None;
    let mut null_keys = None;
    for tok in head.split_whitespace() {
        if let Some(v) = tok.strip_prefix("shard=") {
            shard_id = v.parse::<usize>().ok();
        } else if let Some(v) = tok.strip_prefix("lo=") {
            lo = Some(decode_bound(v)?);
        } else if let Some(v) = tok.strip_prefix("hi=") {
            hi = Some(decode_bound(v)?);
        } else if let Some(v) = tok.strip_prefix("null=") {
            null_keys = v.parse::<bool>().ok();
        } else {
            return Err(bad(format!("bad guard token: {tok}")));
        }
    }
    let (shard_id, lo, hi, null_keys) = match (shard_id, lo, hi, null_keys) {
        (Some(s), Some(lo), Some(hi), Some(n)) => (s, lo, hi, n),
        _ => return Err(bad(format!("incomplete guard line: {rest}"))),
    };
    let mut guards = Vec::new();
    if let Some(part) = preds_part {
        for item in part.split(';').map(str::trim).filter(|s| !s.is_empty()) {
            let p = item
                .strip_prefix("pred ")
                .ok_or_else(|| bad(format!("bad guard predicate item: {item}")))?;
            guards.push(decode_predicate(p).map_err(DiscoveryError::Core)?);
        }
    }
    Ok(ShardGuard {
        shard_id,
        bounds: ShardBounds {
            attr: shard_key,
            lo,
            hi,
            null_keys,
        },
        guards,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::guard_predicates;
    use crr_core::{Conjunction, Crr, Dnf, Predicate};
    use crr_data::Value;
    use crr_models::{LinearModel, Model};
    use std::sync::Arc;

    fn sample() -> RuleSetArtifact {
        let schema = Schema::new(vec![
            ("minute", AttrType::Float),
            ("power", AttrType::Float),
        ]);
        let k = AttrId(0);
        let rule = Crr::new(
            vec![k],
            AttrId(1),
            Arc::new(Model::Linear(LinearModel::new(vec![0.5], 1.0))),
            0.25,
            Dnf::single(Conjunction::of(vec![Predicate::ge(k, Value::Float(0.0))])),
        )
        .unwrap();
        let bounds_a = ShardBounds {
            attr: k,
            lo: None,
            hi: Some(5760.0),
            null_keys: false,
        };
        let bounds_b = ShardBounds {
            attr: k,
            lo: Some(5760.0),
            hi: None,
            null_keys: false,
        };
        let bounds_null = ShardBounds {
            attr: k,
            lo: None,
            hi: None,
            null_keys: true,
        };
        let guards = vec![bounds_a, bounds_b, bounds_null]
            .into_iter()
            .enumerate()
            .map(|(i, b)| ShardGuard {
                shard_id: i,
                guards: guard_predicates(&b),
                bounds: b,
            })
            .collect();
        RuleSetArtifact::new(
            schema,
            RuleSet::from_rules(vec![rule]),
            Some(ProofObligations {
                shard_key: k,
                boundary: Boundary::Quantile,
                guards,
            }),
        )
        .unwrap()
    }

    #[test]
    fn round_trips_schema_rules_and_obligations() {
        let a = sample();
        let text = a.to_text();
        let b = RuleSetArtifact::from_text(&text).unwrap();
        assert_eq!(a.schema, b.schema);
        assert_eq!(a.rules.len(), b.rules.len());
        assert_eq!(
            a.rules.rules()[0].condition(),
            b.rules.rules()[0].condition()
        );
        let oa = a.obligations.as_ref().unwrap();
        let ob = b.obligations.as_ref().unwrap();
        assert_eq!(oa.shard_key, ob.shard_key);
        assert_eq!(oa.boundary, ob.boundary);
        assert_eq!(oa.guards.len(), ob.guards.len());
        for (ga, gb) in oa.guards.iter().zip(&ob.guards) {
            assert_eq!(ga.shard_id, gb.shard_id);
            assert_eq!(ga.bounds, gb.bounds);
            assert_eq!(ga.guards, gb.guards);
        }
        // And the round-trip is a fixed point.
        assert_eq!(text, b.to_text());
    }

    #[test]
    fn obligations_line_without_boundary_is_rejected() {
        let text = sample().to_text().replace(" boundary=quantile", "");
        assert!(RuleSetArtifact::from_text(&text).is_err());
    }

    #[test]
    fn bad_boundary_token_rejected() {
        let text = sample()
            .to_text()
            .replace("boundary=quantile", "boundary=chaotic");
        assert!(RuleSetArtifact::from_text(&text).is_err());
    }

    #[test]
    fn artifact_without_obligations_round_trips() {
        let mut a = sample();
        a.obligations = None;
        let b = RuleSetArtifact::from_text(&a.to_text()).unwrap();
        assert!(b.obligations.is_none());
        assert_eq!(a.schema, b.schema);
    }

    #[test]
    fn out_of_schema_references_rejected() {
        let a = sample();
        let text = a.to_text();
        // Drop the second attr line: rule target #1 now dangles.
        let truncated: String = text
            .lines()
            .filter(|l| !l.contains("attr float power"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(RuleSetArtifact::from_text(&truncated).is_err());
    }

    #[test]
    fn bad_references_name_their_place_in_the_error() {
        let a = sample();
        let dangling = Crr::new(
            vec![AttrId(0)],
            AttrId(1),
            Arc::new(Model::Linear(LinearModel::new(vec![1.0], 0.0))),
            0.25,
            Dnf::single(Conjunction::of(vec![
                Predicate::ge(AttrId(0), Value::Float(1.0)),
                Predicate::lt(AttrId(7), Value::Float(2.0)),
            ])),
        )
        .unwrap();
        let mut rules = a.rules.rules().to_vec();
        rules.push(dangling);
        let err =
            RuleSetArtifact::new(a.schema.clone(), RuleSet::from_rules(rules), None).unwrap_err();
        assert_eq!(
            err.to_string(),
            "rule error: schema mismatch: rule 1 condition references attribute #7 \
             but the schema has 2 attributes"
        );

        let err = a
            .with_repair(RepairObligations {
                kept: 1,
                regions: vec![RepairRegion {
                    region_id: 3,
                    rule: 0,
                    conjunct: 0,
                    guards: vec![Predicate::ge(AttrId(9), Value::Float(0.0))],
                }],
            })
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "rule error: schema mismatch: repair region 3 guard references attribute #9 \
             but the schema has 2 attributes"
        );
    }

    #[test]
    fn repair_obligations_round_trip_as_a_fixed_point() {
        let k = AttrId(0);
        let a = sample()
            .with_repair(RepairObligations {
                kept: 1,
                regions: vec![
                    RepairRegion {
                        region_id: 0,
                        rule: 4,
                        conjunct: 1,
                        guards: vec![
                            Predicate::ge(k, Value::Float(10.0)),
                            Predicate::lt(k, Value::Float(20.0)),
                        ],
                    },
                    RepairRegion {
                        region_id: 1,
                        rule: 4,
                        conjunct: 2,
                        guards: vec![Predicate::ge(k, Value::Float(5760.0))],
                    },
                    RepairRegion {
                        region_id: 2,
                        rule: 7,
                        conjunct: 0,
                        guards: Vec::new(),
                    },
                ],
            })
            .unwrap();
        let text = a.to_text();
        let b = RuleSetArtifact::from_text(&text).unwrap();
        assert_eq!(a.repair, b.repair);
        // And the round-trip is a fixed point.
        assert_eq!(text, b.to_text());
    }

    #[test]
    fn repair_region_guard_references_are_checked() {
        let err = sample().with_repair(RepairObligations {
            kept: 0,
            regions: vec![RepairRegion {
                region_id: 0,
                rule: 0,
                conjunct: 0,
                guards: vec![Predicate::ge(AttrId(9), Value::Float(0.0))],
            }],
        });
        assert!(err.is_err());
    }

    #[test]
    fn malformed_repair_lines_rejected() {
        let good = sample()
            .with_repair(RepairObligations {
                kept: 1,
                regions: vec![RepairRegion {
                    region_id: 0,
                    rule: 0,
                    conjunct: 0,
                    guards: Vec::new(),
                }],
            })
            .unwrap()
            .to_text();
        // A region line before any repair line.
        let reordered = good.replace("repair kept=1\n", "");
        assert!(RuleSetArtifact::from_text(&reordered).is_err());
        // Every region is a drifted conjunct: any other origin, or a
        // missing field, is rejected.
        for origin in ["origin=mystery", "origin=uncovered"] {
            assert!(RuleSetArtifact::from_text(&good.replace("origin=drifted", origin)).is_err());
        }
        for field in [" origin=drifted", " rule=0", " conj=0", "id=0 "] {
            assert!(RuleSetArtifact::from_text(&good.replace(field, "")).is_err());
        }
        assert!(RuleSetArtifact::from_text(&good.replace("kept=1", "kept=x")).is_err());
    }

    #[test]
    fn malformed_documents_rejected() {
        assert!(RuleSetArtifact::from_text("").is_err());
        assert!(RuleSetArtifact::from_text("crr-artifact v1\n").is_err());
        assert!(RuleSetArtifact::from_text("crr-artifact v1\nattr float x\n").is_err());
        assert!(RuleSetArtifact::from_text(
            "crr-artifact v1\nattr blob x\nrules\ncrr-ruleset v1\n"
        )
        .is_err());
        assert!(RuleSetArtifact::from_text(
            "crr-artifact v1\nattr float x\nguard shard=0 lo=- hi=- null=false\nrules\ncrr-ruleset v1\n"
        )
        .is_err());
        let good = sample().to_text();
        assert!(RuleSetArtifact::from_text(&good.replace("rules\n", "rulez\n")).is_err());
    }
}
