//! `EXPERIMENTS.md` against the machine: every block
//! `opentla_bench::experiments` renders must be in the document
//! verbatim, and the document may hold no table or fenced block the
//! function does not render. On a mismatch the failure prints the
//! blocks to paste, which is how the document is regenerated.

const DOC: &str = include_str!("../../../EXPERIMENTS.md");

/// The document's Markdown tables (maximal runs of lines opening with
/// `|`) and fenced blocks (fences included), one string each.
fn document_blocks(doc: &str) -> Vec<String> {
    let mut blocks: Vec<Vec<&str>> = Vec::new();
    let (mut fenced, mut in_table) = (false, false);
    for line in doc.lines() {
        let fence = line.starts_with("```");
        let table_line = !fenced && line.starts_with('|');
        if fenced || (table_line && in_table) {
            blocks.last_mut().expect("a block is open").push(line);
        } else if fence || table_line {
            blocks.push(vec![line]);
        }
        fenced ^= fence;
        in_table = table_line;
    }
    blocks.into_iter().map(|b| b.join("\n")).collect()
}

/// The blocks of `blocks` that `other` does not hold, blank-line separated.
fn missing(blocks: &[String], other: &[String]) -> String {
    let missing: Vec<&str> = blocks
        .iter()
        .filter(|b| !other.contains(b))
        .map(String::as_str)
        .collect();
    missing.join("\n\n")
}

#[test]
fn experiments_md_is_what_the_machine_derives() {
    let derived = opentla_bench::experiments();
    let documented = document_blocks(DOC);
    let stale = missing(&derived, &documented);
    let underived = missing(&documented, &derived);
    assert!(
        stale.is_empty() && underived.is_empty(),
        "EXPERIMENTS.md disagrees with opentla_bench::experiments.\n\n\
         Paste each derived block over its counterpart:\n\n{stale}\n\n\
         Delete these blocks, or derive them in opentla_bench::experiments:\n\n{underived}\n",
    );
}
