//@ lint-as: crates/engine/src/telemetry.rs
fn emit(events: &EventStream, radius_bucket_count: u64) {
    // privlint::allow(event-payload-leak): counts how many radius buckets the
    // latency histogram has — a cardinality of the telemetry schema itself,
    // not a radius drawn from any dataset
    event!(events, Severity::Info, "histogram.shape", n = radius_bucket_count); //~ WAIVED event-payload-leak
}
