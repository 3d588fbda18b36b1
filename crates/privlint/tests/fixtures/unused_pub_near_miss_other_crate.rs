//@ lint-as: crates/report/src/table.rs
// `unused-pub` covers the mechanism and service crates only: the report
// writer is a tool, and its public helpers need no production caller.

pub fn render_markdown(rows: &[Vec<String>]) -> String {
    rows.iter().map(|r| r.join(" | ")).collect::<Vec<_>>().join("\n")
}
