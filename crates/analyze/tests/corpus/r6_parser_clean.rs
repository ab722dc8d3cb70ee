//! R6 parser-span clean: every span flows to the sink borrowed; the
//! reader has no owned-copy site at all.

fn r6pc_deliver_text(sink: &mut dyn EventSink, input: &str, start: usize, lt: usize) {
    // Borrowed delivery: no copy at all.
    sink.characters(&input[start..lt]);
}

fn r6pc_deliver_unescaped(sink: &mut dyn EventSink, scratch: &mut String, raw: &str) {
    // Entity text is expanded into a reused scratch and lent out.
    scratch.clear();
    unescape_into(raw, scratch);
    sink.characters(scratch);
}
