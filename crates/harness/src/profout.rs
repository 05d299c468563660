//! Writing a [`h2_sim_core::prof::ProfReport`] to disk
//! (`h2 run --profile <dir>`).
//!
//! Three sibling artifacts per profiled invocation:
//!
//! | file             | format                              | consumer            |
//! |------------------|-------------------------------------|---------------------|
//! | `profile.txt`    | rendered tree, exclusive-time %     | humans, CI logs     |
//! | `profile.json`   | canonical JSON (`h2-profile` v1)    | tooling, diffing    |
//! | `profile.folded` | folded stacks, exclusive ns weights | flamegraph.pl et al |

use h2_sim_core::prof::ProfReport;
use std::io;
use std::path::{Path, PathBuf};

/// Write `profile.{txt,json,folded}` into `dir` (created if missing).
/// Returns the three paths in that order.
pub fn write_profile(dir: &Path, report: &ProfReport) -> io::Result<[PathBuf; 3]> {
    std::fs::create_dir_all(dir)?;
    let txt = dir.join("profile.txt");
    let json = dir.join("profile.json");
    let folded = dir.join("profile.folded");
    std::fs::write(&txt, report.render_text())?;
    let mut doc = report.to_json().to_string_pretty();
    doc.push('\n');
    std::fs::write(&json, doc)?;
    std::fs::write(&folded, report.to_folded())?;
    Ok([txt, json, folded])
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2_sim_core::prof;

    #[test]
    fn writes_all_three_artifacts() {
        let _guard = prof::test_lock();
        prof::reset();
        prof::arm();
        {
            let _a = prof::scope("alpha");
            let _b = prof::scope("beta");
            std::hint::black_box(0u64);
        }
        prof::disarm();
        let report = prof::take_report();

        let dir = std::env::temp_dir().join(format!("h2-profout-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let paths = write_profile(&dir, &report).unwrap();
        for p in &paths {
            assert!(p.exists(), "missing {}", p.display());
        }
        let txt = std::fs::read_to_string(&paths[0]).unwrap();
        assert!(txt.contains("alpha"), "tree text lacks the root scope:\n{txt}");
        let json = std::fs::read_to_string(&paths[1]).unwrap();
        assert!(json.contains("\"h2-profile\""), "json lacks the kind tag");
        let folded = std::fs::read_to_string(&paths[2]).unwrap();
        assert!(
            folded.lines().any(|l| l.starts_with("alpha")),
            "folded stacks lack the root frame:\n{folded}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
