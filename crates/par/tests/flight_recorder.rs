//! The ambient flight recorder is process-global, so the one test that
//! installs it runs in this binary of its own: no other test can call
//! `par_map_jobs` while it records.

use lip_par::par_map_jobs;

#[test]
fn installed_recorder_sees_worker_spans_and_item_counts() {
    use lip_obs::flight;
    let rec = lip_obs::FlightRecorder::new();
    flight::install(&rec);
    let items: Vec<u64> = (0..40).collect();
    let out = par_map_jobs(4, &items, |&x| x + 1);
    // Serial path counts items too.
    let solo = par_map_jobs(1, &items, |&x| x + 1);
    flight::uninstall();
    assert_eq!(out, solo);
    let dump = rec.drain();
    let workers = dump.spans.iter().filter(|s| s.cat == "par").count();
    assert_eq!(workers, 4, "one span per spawned worker");
    assert_eq!(dump.counters["par.items"], 80, "both runs counted");
    // Uninstalled: no further recording.
    let _ = par_map_jobs(2, &items, |&x| x);
    assert_eq!(rec.drain().counters.get("par.items"), None);
}
