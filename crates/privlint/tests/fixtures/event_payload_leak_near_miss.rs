//@ lint-as: crates/engine/src/telemetry.rs
// `dataset`, `datasets` and `points` contain banned words only as substrings,
// never as whole `_`-separated segments — the aggregate field names the
// telemetry contract allows stay clean.
fn emit(events: &EventStream, dataset: &str, points: usize, secs: f64) {
    event!(
        events,
        Severity::Info,
        "engine.register",
        dataset = dataset,
        points = points,
        build_seconds = secs,
    );
}
// Payload-named identifiers outside a telemetry call window are some other
// rule's business, not this one's.
fn plain(radius: f64) -> f64 {
    radius + 1.0
}
