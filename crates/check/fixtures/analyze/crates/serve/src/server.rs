//! Seeded analyze fixture: the serving entry points, with exactly one
//! panic-reachability violation in a helper all of them reach.

/// Fixture twin of the real connection handler.
pub fn handle_connection(reqs: &[u32]) -> u32 {
    decode_request(reqs)
}

/// Fixture twin of the real table-loader thread body.
pub fn run_loader(reqs: &[u32]) -> u32 {
    decode_request(reqs)
}

/// Fixture twin of the real server start-up.
pub fn start(reqs: &[u32]) -> u32 {
    decode_request(reqs)
}

/// The seeded violation: this unwrap is reachable from every entry point.
fn decode_request(reqs: &[u32]) -> u32 {
    *reqs.first().unwrap()
}
