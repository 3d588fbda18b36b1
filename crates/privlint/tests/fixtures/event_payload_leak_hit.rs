//@ lint-as: crates/engine/src/telemetry.rs
fn emit(events: &EventStream, r: f64) {
    event!(events, Severity::Info, "query.release", radius = r); //~ HIT event-payload-leak
    event!(events, Severity::Debug, "query.debug", n = point_coords.len()); //~ HIT event-payload-leak
}
fn tag(span: &mut Span) {
    span.annotate("released", released_value); //~ HIT event-payload-leak
}
