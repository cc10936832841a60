//! The checked-in answers: `benchmark/expected/<workload>.json` pins,
//! for the default seed at full scale, the corpus fingerprint and every
//! pattern's answer as the oracle gave it when the file was blessed. A
//! run with that seed compares its own oracle against the file, so a
//! change that moves both the engine's answers and the oracle's (both
//! use the regex crate) is still caught.

use crate::inputs::{Fingerprint, Scale, DEFAULT_SEED};
use crate::oracle::Answer;
use crate::sut::{JsonArray, JsonObject, JsonValue};
use crate::workloads::{Ctx, Outcome};
use crate::Args;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(format!("{workload}.json"))
}

fn render(workload: &str, outcome: &Outcome) -> String {
    let fp = &outcome.fingerprint;
    let mut fingerprint = JsonObject::new();
    fingerprint
        .field_u64("docs", fp.docs)
        .field_u64("bytes", fp.bytes)
        .field_str("crc", &format!("{:08x}", fp.crc));
    // One answer per line, so a diff of the file reads.
    let answers: Vec<String> = outcome
        .blessed
        .iter()
        .map(|(pattern, answers)| {
            let mut docs = JsonArray::new();
            let mut digests = JsonArray::new();
            for a in answers {
                docs.push_u64(u64::from(a.docs));
                digests.push_str(&format!("{:016x}", a.digest));
            }
            let mut o = JsonObject::new();
            o.field_str("pattern", pattern)
                .field_raw("docs", docs.finish())
                .field_raw("digest", digests.finish());
            o.finish()
        })
        .collect();
    let mut head = JsonObject::new();
    head.field_str("workload", workload)
        .field_u64("seed", DEFAULT_SEED)
        .field_str("scale", Scale::Full.name())
        .field_raw("fingerprint", fingerprint.finish());
    crate::report::object_with_lines(&head, "answers", &answers)
}

/// A pattern and its answers (one, or base and base + adds).
type Blessed = (String, Vec<Answer>);

fn parse(text: &str) -> Option<(Fingerprint, Vec<Blessed>)> {
    let doc = JsonValue::parse(text).ok()?;
    let fp = doc.get("fingerprint")?;
    let fingerprint = Fingerprint {
        docs: fp.get("docs")?.as_u64()?,
        bytes: fp.get("bytes")?.as_u64()?,
        crc: u32::from_str_radix(fp.get("crc")?.as_str()?, 16).ok()?,
    };
    let mut answers = Vec::new();
    for entry in doc.get("answers")?.as_array()? {
        let docs = entry.get("docs")?.as_array()?;
        let digests = entry.get("digest")?.as_array()?;
        let pairs = docs
            .iter()
            .zip(digests)
            .map(|(d, h)| {
                Some(Answer {
                    docs: u32::try_from(d.as_u64()?).ok()?,
                    digest: u64::from_str_radix(h.as_str()?, 16).ok()?,
                })
            })
            .collect::<Option<Vec<Answer>>>()?;
        answers.push((entry.get("pattern")?.as_str()?.to_string(), pairs));
    }
    Some((fingerprint, answers))
}

/// On a default-seed, full-scale run: the run's fingerprint and oracle
/// answers must be the blessed ones. Each difference is a failure.
pub fn check(workload: &str, ctx: &Ctx, outcome: &mut Outcome) {
    if ctx.seed != DEFAULT_SEED || ctx.scale != Scale::Full {
        return;
    }
    let file = path(workload);
    let Some((fingerprint, answers)) = std::fs::read_to_string(&file).ok().and_then(|t| parse(&t))
    else {
        outcome.fail(format!(
            "{} is missing or unreadable; run `bless`",
            file.display()
        ));
        return;
    };
    if fingerprint != outcome.fingerprint {
        outcome.fail(format!(
            "corpus fingerprint {:?} differs from the blessed {fingerprint:?}",
            outcome.fingerprint
        ));
    }
    if answers.len() != outcome.blessed.len() {
        outcome.fail(format!(
            "{} patterns, the blessed file has {}",
            outcome.blessed.len(),
            answers.len()
        ));
    }
    let wrong: Vec<&str> = answers
        .iter()
        .zip(&outcome.blessed)
        .filter(|(a, b)| a != b)
        .map(|(a, _)| a.0.as_str())
        .collect();
    if let Some(first) = wrong.first() {
        outcome.fail(format!(
            "{} answer(s) differ from the blessed file, first {first:?}",
            wrong.len()
        ));
    }
}

/// `bless`: runs each workload (or `--workload` alone) with the default
/// seed at full scale and writes its oracle's answers. Refuses when the
/// run itself failed: a blessed file must describe a run that agreed
/// with its oracle.
pub fn bless(args: &Args) -> Result<ExitCode, String> {
    for workload in crate::catalogue::WORKLOADS {
        if args.workload.as_deref().is_some_and(|w| w != workload) {
            continue;
        }
        let run_args = Args {
            workload: Some(workload.to_string()),
            seed: DEFAULT_SEED,
            traced: false,
            scale: Scale::Full,
            ..args.clone()
        };
        let (_, outcome) = crate::execute(&run_args, workload, Instant::now())?;
        if outcome.failed != 0 {
            for failure in &outcome.failures {
                eprintln!("FAILED {failure}");
            }
            return Err(format!("{workload}: the run failed; nothing blessed"));
        }
        let file = path(workload);
        if let Some(dir) = file.parent() {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
        std::fs::write(&file, render(workload, &outcome)).map_err(|e| e.to_string())?;
        eprintln!(
            "blessed {} ({} patterns)",
            file.display(),
            outcome.blessed.len()
        );
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_rendered_file_parses_back() {
        let mut outcome = Outcome::new(Fingerprint {
            docs: 3,
            bytes: 4096,
            crc: 0xdead_beef,
        });
        outcome.blessed = vec![
            (r#"a"b\d"#.to_string(), vec![Answer { docs: 2, digest: 7 }]),
            (
                "(x|y)".to_string(),
                vec![
                    Answer {
                        docs: 0,
                        digest: u64::MAX,
                    },
                    Answer { docs: 9, digest: 1 },
                ],
            ),
        ];
        let (fingerprint, answers) = parse(&render("w", &outcome)).unwrap();
        assert_eq!(fingerprint, outcome.fingerprint);
        assert_eq!(answers, outcome.blessed);
    }
}
