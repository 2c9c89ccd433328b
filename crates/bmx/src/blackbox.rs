//! Post-mortem blackbox: when the parallel runtime dies badly, dump
//! everything a human needs to diagnose it — automatically.
//!
//! A chaos-soak failure or a nightly watchdog alarm used to arrive as a
//! bare assertion message; reconstructing *why* meant re-running the
//! seed locally with ad-hoc printf timing. The blackbox closes that
//! loop: a harness **arms** it with a label (typically the workload
//! seed), and when a watchdog alarm fires, a node's failure domain
//! crashes on a genuine panic/protocol error, or the harness itself
//! fails, the runtime writes `target/blackbox/<label>/` containing
//!
//! * `reason.txt` — why the dump happened (appended, wall-clock
//!   stamped, so repeated triggers in one episode stay readable);
//! * `metrics.json` — a registry snapshot stamped with capture time and
//!   node generations ([`bmx_metrics::Snapshot::stamp_meta`]), so dumps
//!   from different threads/nodes are orderable after the fact;
//! * `trace.json` — the flight recorder: every process-wide ring's
//!   last-N records, spans and causal events on one wall-clock base, as
//!   one Chrome/Perfetto trace ([`bmx_trace::chrome::export`];
//!   non-draining: [`bmx_trace::snapshot_global`]). It is written last,
//!   by rename, so its presence means the whole dump is on disk.
//!
//! Arming is process-global (the parallel runtime's failure paths have
//! no harness context to thread a handle through) and **off by
//! default**: a green run writes nothing, which is exactly what CI
//! checks — nightly fails if `target/blackbox/` is non-empty on a
//! passing run, so every dump is either a diagnosed failure or a bug in
//! the triggers.

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Mutex;

use bmx_metrics::Registry;
use bmx_trace as trace;

static ARMED: Mutex<Option<String>> = Mutex::new(None);

fn armed_label() -> std::sync::MutexGuard<'static, Option<String>> {
    ARMED.lock().unwrap_or_else(|p| p.into_inner())
}

/// Maps a free-form label (a `{seed:#x}`, a test name) onto a safe
/// directory name.
fn sanitize(label: &str) -> String {
    let cleaned: String = label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '-'
            }
        })
        .collect();
    if cleaned.is_empty() {
        "unlabelled".into()
    } else {
        cleaned
    }
}

fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Arms the blackbox: from now until [`disarm`], any trigger dumps to
/// `target/blackbox/<label>/`. Re-arming replaces the label.
pub fn arm(label: &str) {
    *armed_label() = Some(sanitize(label));
}

/// Disarms the blackbox. Harnesses call this on their *success* path,
/// so a passing run leaves `target/blackbox/` empty for the CI gate.
pub fn disarm() {
    *armed_label() = None;
}

/// The label the blackbox is currently armed with, if any.
pub fn armed() -> Option<String> {
    armed_label().clone()
}

/// Dumps if armed; returns the dump directory when one was written.
/// Failure paths call this unconditionally — the armed check is the
/// policy, the caller just reports what happened.
pub fn dump_if_armed(
    reason: &str,
    reg: Option<&Registry>,
    generations: &[(u32, u64)],
) -> Option<PathBuf> {
    let label = armed_label().clone()?;
    dump(&label, reason, reg, generations).ok()
}

/// Writes one blackbox dump to `target/blackbox/<label>/`, regardless of
/// the armed state (test harnesses dump explicitly on their own failure
/// paths). Repeated dumps under one label overwrite the metric and
/// trace files — last writer wins, which is the incarnation closest to
/// the death — while `reason.txt` appends, keeping the full trigger
/// history.
pub fn dump(
    label: &str,
    reason: &str,
    reg: Option<&Registry>,
    generations: &[(u32, u64)],
) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from("target")
        .join("blackbox")
        .join(sanitize(label));
    fs::create_dir_all(&dir)?;

    let mut f = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("reason.txt"))?;
    writeln!(f, "[{} ms unix] {reason}", unix_ms())?;

    if let Some(reg) = reg {
        let mut snap = reg.snapshot();
        snap.stamp_meta(generations);
        fs::write(dir.join("metrics.json"), bmx_metrics::json::to_json(&snap))?;
    }

    let partial = dir.join("trace.json.partial");
    fs::write(&partial, trace::chrome::export(&trace::snapshot_global()))?;
    fs::rename(partial, dir.join("trace.json"))?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_sanitized() {
        assert_eq!(sanitize("seed-0xabc"), "seed-0xabc");
        assert_eq!(sanitize("soak seed 0x2"), "soak-seed-0x2");
        // Separators never survive: a label cannot escape the dump dir.
        assert_eq!(sanitize("../../etc/passwd"), "..-..-etc-passwd");
        assert_eq!(sanitize(""), "unlabelled");
    }

    #[test]
    fn arm_disarm_roundtrip() {
        disarm();
        assert!(armed().is_none());
        arm("seed 0x1");
        assert_eq!(armed().as_deref(), Some("seed-0x1"));
        disarm();
        assert!(armed().is_none());
        assert!(dump_if_armed("nothing armed", None, &[]).is_none());
    }
}
