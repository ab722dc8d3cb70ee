//! R6 parser-span trigger: the reader materializing owned copies of
//! input spans at delivery sites instead of handing them out borrowed.

fn r6p_deliver_text(sink: &mut Vec<String>, input: &str, start: usize, lt: usize) {
    // Owned copy of a borrowed input span at the characters site.
    sink.push(input[start..lt].to_string());
}

fn r6p_deliver_pi(sink: &mut Vec<(String, String)>, target: &str, data: &str) {
    // Copies both spans out of the input.
    sink.push((String::from(target), data.to_owned()));
}
