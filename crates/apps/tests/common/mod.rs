//! Shared by the integration tests that read the `examples/*.rs` sources.

/// `r#"..."#` literals holding OpenACC pragmas, as `acc-lint FILE.rs`
/// extracts them.
pub fn embedded_sources(rs: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = rs;
    while let Some(start) = rest.find("r#\"") {
        let body = &rest[start + 3..];
        let Some(end) = body.find("\"#") else { break };
        if body[..end].contains("#pragma acc") {
            out.push(body[..end].to_string());
        }
        rest = &body[end + 2..];
    }
    out
}
