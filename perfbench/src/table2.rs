//! The paper's Table II, derived from the last `paper_analyze` and
//! `paper_mc` runs in this checkout. Printed for reading only and never
//! gated: a faster Monte Carlo path must not count as a regression.

use crate::paper::CLASSES;
use crate::RunArgs;

fn rows_path(args: &RunArgs, workload: &str) -> std::path::PathBuf {
    args.out_dir.join(format!("table2-{workload}.tsv"))
}

/// Saves this run's per-circuit rows and, when the other paper workload's
/// rows are also at hand, prints the Table II summary on stderr.
///
/// `paper_analyze` rows: `class σ(PN) t(PN)_p50_ms`;
/// `paper_mc` rows: `class mean σ t(MC)_p50_ms n`.
pub fn record(args: &RunArgs, workload: &str, rows: &[String]) -> Result<(), String> {
    let path = rows_path(args, workload);
    std::fs::write(&path, rows.join("\n") + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let read = |w: &str| std::fs::read_to_string(rows_path(args, w)).ok();
    if let (Some(pn), Some(mc)) = (read("paper_analyze"), read("paper_mc")) {
        eprint!("{}", render(&pn, &mc));
    }
    Ok(())
}

fn fields(text: &str) -> Vec<Vec<f64>> {
    text.lines()
        .map(|l| {
            l.split('\t')
                .skip(1)
                .filter_map(|v| v.parse().ok())
                .collect()
        })
        .collect()
}

fn render(pn: &str, mc: &str) -> String {
    let (pn, mc) = (fields(pn), fields(mc));
    let mut out = String::from(
        "Table II (derived, not gated): speedup = 1000 * t(MC sample) / t(PN)\n\
         circuit      sigma(PN)     MC mean       MC sigma      n    t(PN) ms  t(MC) ms  speedup\n",
    );
    for (k, class) in CLASSES.iter().enumerate() {
        let (Some(a), Some(b)) = (pn.get(k), mc.get(k)) else {
            continue;
        };
        if a.len() < 2 || b.len() < 4 {
            continue;
        }
        out.push_str(&format!(
            "{class:<12} {:<13.6e} {:<13.6e} {:<13.6e} {:<4} {:>9.3} {:>9.3} {:>8.0}x\n",
            a[0],
            b[0],
            b[1],
            b[3],
            a[1],
            b[2],
            1000.0 * b[2] / a[1]
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn speedup_is_thousand_samples_over_one_analysis() {
        let pn = "strongarm\t1e-3\t25\nlogic_path\t2e-12\t50\nring_osc\t3e7\t25\n";
        let mc = "strongarm\t0\t1.1e-3\t125\t120\nlogic_path\t1e-10\t2e-12\t25\t120\nring_osc\t2e9\t3e7\t25\t120\n";
        let text = super::render(pn, mc);
        assert!(text.contains("5000x"), "{text}");
        assert!(text.contains("500x"), "{text}");
        assert!(text.contains("1000x"), "{text}");
    }
}
