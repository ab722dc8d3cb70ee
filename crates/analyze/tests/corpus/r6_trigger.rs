//! R6 trigger: copying a shared payload buffer layer-by-layer.

fn echo(request: &Request) -> Response {
    // Copies the whole payload even though `Body` shares its bytes.
    let bytes = request.body.to_vec();
    Response::ok("text/plain", bytes)
}

fn stash(exchange: &Exchange) -> SaxEventSequence {
    // Deep-copies the recorded arena instead of sharing its `Arc`.
    exchange.response_events.to_owned()
}
