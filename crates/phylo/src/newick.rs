//! Newick tree serialization: lexer, parser, writer, streaming reader.
//!
//! The dialect follows what Dendropy (the paper's foundation) accepts:
//!
//! * unquoted labels (`Homo_sapiens`), single-quoted labels with `''`
//!   escaping (`'Homo sapiens (human)'`),
//! * bracket comments `[...]`, which may nest,
//! * branch lengths after `:` in integer/decimal/scientific notation,
//! * internal node labels (stored, and round-tripped by the writer),
//! * multifurcations and single-leaf trees.
//!
//! Parsing is iterative (no recursion), so deeply nested caterpillar trees
//! cannot overflow the stack. The [`NewickStream`] reader yields trees one
//! at a time from any `BufRead` source — this is the "dynamically load Q"
//! behaviour the BFHRF algorithm exploits to keep memory flat.

use crate::taxa::TaxonSet;
use crate::tree::{NodeId, Tree};
use crate::PhyloError;
use std::io::BufRead;

/// How the parser treats labels not yet in the taxon namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaxaPolicy {
    /// Intern unseen labels (used for the first collection read).
    Grow,
    /// Error with [`PhyloError::UnknownTaxon`] on unseen labels (used to
    /// enforce the paper's fixed-taxa requirement across `Q` and `R`).
    Require,
}

#[derive(Debug, PartialEq)]
enum Token {
    Open,
    Close,
    Comma,
    Colon,
    Semicolon,
    Label(String),
    Number(f64),
}

struct Lexer<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(input: &'a str) -> Self {
        Lexer {
            input: input.as_bytes(),
            pos: 0,
        }
    }

    fn skip_trivia(&mut self) -> Result<(), PhyloError> {
        loop {
            while self.pos < self.input.len() && self.input[self.pos].is_ascii_whitespace() {
                self.pos += 1;
            }
            if self.pos < self.input.len() && self.input[self.pos] == b'[' {
                let start = self.pos;
                let mut depth = 0usize;
                while self.pos < self.input.len() {
                    match self.input[self.pos] {
                        b'[' => depth += 1,
                        b']' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    self.pos += 1;
                }
                if depth != 0 {
                    return Err(PhyloError::parse(start, "unterminated comment"));
                }
                self.pos += 1; // past ']'
                continue;
            }
            return Ok(());
        }
    }

    /// Position of the upcoming token (for error messages).
    fn offset(&self) -> usize {
        self.pos
    }

    fn at_end(&mut self) -> Result<bool, PhyloError> {
        self.skip_trivia()?;
        Ok(self.pos >= self.input.len())
    }

    /// `expect_number` is true right after a `:` — there (and only there)
    /// bare tokens are branch lengths rather than labels.
    fn next_token(&mut self, expect_number: bool) -> Result<Token, PhyloError> {
        self.skip_trivia()?;
        let start = self.pos;
        let Some(&b) = self.input.get(self.pos) else {
            return Err(PhyloError::parse(start, "unexpected end of input"));
        };
        match b {
            b'(' => {
                self.pos += 1;
                Ok(Token::Open)
            }
            b')' => {
                self.pos += 1;
                Ok(Token::Close)
            }
            b',' => {
                self.pos += 1;
                Ok(Token::Comma)
            }
            b':' => {
                self.pos += 1;
                Ok(Token::Colon)
            }
            b';' => {
                self.pos += 1;
                Ok(Token::Semicolon)
            }
            b'\'' => {
                // Find the closing quote (`''` is an escaped quote), then
                // decode the label's bytes as UTF-8 in one go.
                let mut end = start + 1;
                loop {
                    match self.input.get(end) {
                        None => return Err(PhyloError::parse(start, "unterminated quoted label")),
                        Some(b'\'') if self.input.get(end + 1) == Some(&b'\'') => end += 2,
                        Some(b'\'') => break,
                        Some(_) => end += 1,
                    }
                }
                let text = std::str::from_utf8(&self.input[start + 1..end])
                    .map_err(|_| PhyloError::parse(start, "invalid UTF-8 in label"))?;
                self.pos = end + 1;
                Ok(Token::Label(text.replace("''", "'")))
            }
            _ => {
                // bare token: runs until a structural character
                while self.pos < self.input.len() {
                    let c = self.input[self.pos];
                    if matches!(c, b'(' | b')' | b',' | b':' | b';' | b'[' | b'\'')
                        || c.is_ascii_whitespace()
                    {
                        break;
                    }
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.input[start..self.pos])
                    .map_err(|_| PhyloError::parse(start, "invalid UTF-8 in label"))?;
                if expect_number {
                    let v: f64 = text.parse().map_err(|_| {
                        PhyloError::parse(start, format!("invalid branch length {text:?}"))
                    })?;
                    Ok(Token::Number(v))
                } else {
                    Ok(Token::Label(text.to_string()))
                }
            }
        }
    }
}

/// Parse one Newick tree (terminated by `;`) from `input`.
///
/// Leaf labels are resolved against `taxa` under `policy`. Internal labels
/// (support values etc.) are preserved on the tree. Trailing content after
/// the `;` is an error — use [`read_trees_from_str`] or [`NewickStream`]
/// for multi-tree inputs.
pub fn parse_newick(
    input: &str,
    taxa: &mut TaxonSet,
    policy: TaxaPolicy,
) -> Result<Tree, PhyloError> {
    let mut lexer = Lexer::new(input);
    let tree = parse_one(&mut lexer, &mut policy_resolver(taxa, policy))?;
    if !lexer.at_end()? {
        return Err(PhyloError::parse(
            lexer.offset(),
            "trailing content after ';'",
        ));
    }
    Ok(tree)
}

/// [`parse_newick`] against a **shared** namespace with
/// [`TaxaPolicy::Require`] semantics: unknown labels error, the namespace
/// is never mutated, and — unlike cloning the set to satisfy the `&mut`
/// parser signature — nothing is allocated per call. This is the serve
/// daemon's request path: many worker threads parsing concurrently against
/// one frozen `TaxonSet`.
pub fn parse_newick_readonly(input: &str, taxa: &TaxonSet) -> Result<Tree, PhyloError> {
    let mut lexer = Lexer::new(input);
    let tree = parse_one(&mut lexer, &mut |label| taxa.require(label))?;
    if !lexer.at_end()? {
        return Err(PhyloError::parse(
            lexer.offset(),
            "trailing content after ';'",
        ));
    }
    Ok(tree)
}

/// Parse every tree in `input` (one per `;`).
pub fn read_trees_from_str(
    input: &str,
    taxa: &mut TaxonSet,
    policy: TaxaPolicy,
) -> Result<Vec<Tree>, PhyloError> {
    let mut lexer = Lexer::new(input);
    let mut resolve = policy_resolver(taxa, policy);
    let mut out = Vec::new();
    while !lexer.at_end()? {
        out.push(parse_one(&mut lexer, &mut resolve)?);
    }
    Ok(out)
}

/// Label resolution under a [`TaxaPolicy`], as a closure so the parser
/// core is agnostic to whether the namespace can grow.
fn policy_resolver(
    taxa: &mut TaxonSet,
    policy: TaxaPolicy,
) -> impl FnMut(&str) -> Result<crate::TaxonId, PhyloError> + '_ {
    move |label| match policy {
        TaxaPolicy::Grow => Ok(taxa.intern(label)),
        TaxaPolicy::Require => taxa.require(label),
    }
}

/// The number of nodes the record at the start of `input` builds: the root,
/// plus one per `(` and one per `,` before its terminating `;`, skipping
/// quoted labels and nested `[...]` comments as the lexer does. Every node
/// the parser adds comes from one of those bytes, so the count is exact for
/// a record that parses and an upper bound for one that fails part-way.
///
/// The scan runs before every parse, so it goes a block at a time: a
/// 64-byte block outside quotes and comments that holds no `'`, `[` or `;`
/// (almost every block of a real record) is counted in one branch-free
/// pass; any other block goes byte by byte.
fn record_node_count(input: &[u8]) -> usize {
    const BLOCK: usize = 64;
    let mut count = 1;
    let mut in_quote = false;
    let mut comment_depth = 0usize;
    let mut i = 0;
    while i < input.len() {
        if !in_quote && comment_depth == 0 {
            if let Some(block) = input[i..].first_chunk::<BLOCK>() {
                let (mut nodes, mut stops) = (0u8, 0u8);
                // `|` rather than `||`/`matches!`: no branches, so the
                // loop vectorizes (about 10x faster than the byte loop).
                for &b in block {
                    nodes += u8::from(b == b'(') | u8::from(b == b',');
                    stops |= u8::from(b == b'\'') | u8::from(b == b'[') | u8::from(b == b';');
                }
                if stops == 0 {
                    count += usize::from(nodes);
                    i += BLOCK;
                    continue;
                }
            }
        }
        let end = (i + BLOCK).min(input.len());
        for &b in &input[i..end] {
            if in_quote {
                // `''` leaves the quote and re-enters it at the next byte.
                in_quote = b != b'\'';
            } else if comment_depth > 0 {
                match b {
                    b'[' => comment_depth += 1,
                    b']' => comment_depth -= 1,
                    _ => {}
                }
            } else {
                match b {
                    b'\'' => in_quote = true,
                    b'[' => comment_depth = 1,
                    b'(' | b',' => count += 1,
                    b';' => return count,
                    _ => {}
                }
            }
        }
        i = end;
    }
    count
}

fn parse_one(
    lexer: &mut Lexer<'_>,
    resolve: &mut dyn FnMut(&str) -> Result<crate::TaxonId, PhyloError>,
) -> Result<Tree, PhyloError> {
    // Sized from the record's own count, the arena never regrows and holds
    // exactly `num_nodes()` slots once the tree parses.
    let capacity = record_node_count(&lexer.input[lexer.pos..]);
    let mut tree = Tree::with_node_capacity(capacity);
    let root = tree.add_root();
    let mut cur = root;
    // Nodes that already carry a label, to reject a second one. Every node
    // id stays below `capacity`, so plain indexing cannot go out of range.
    let mut named = vec![false; capacity];
    let mut depth = 0usize;

    loop {
        let offset = {
            lexer.skip_trivia()?;
            lexer.offset()
        };
        match lexer.next_token(false)? {
            Token::Open => {
                if named[cur.index()] || tree.taxon(cur).is_some() {
                    return Err(PhyloError::parse(offset, "unexpected '(' after label"));
                }
                if !tree.children(cur).is_empty() {
                    return Err(PhyloError::parse(
                        offset,
                        "unexpected '(': node already closed",
                    ));
                }
                depth += 1;
                cur = tree.add_child(cur);
            }
            Token::Comma => {
                if depth == 0 {
                    return Err(PhyloError::parse(offset, "',' outside parentheses"));
                }
                finish_node(&tree, cur, offset)?;
                let parent = tree
                    .parent(cur)
                    .ok_or_else(|| PhyloError::parse(offset, "',' outside parentheses"))?;
                cur = tree.add_child(parent);
            }
            Token::Close => {
                if depth == 0 {
                    return Err(PhyloError::parse(offset, "unbalanced ')'"));
                }
                finish_node(&tree, cur, offset)?;
                depth -= 1;
                cur = tree
                    .parent(cur)
                    .ok_or_else(|| PhyloError::parse(offset, "unbalanced ')'"))?;
            }
            Token::Colon => {
                if tree.length(cur).is_some() {
                    return Err(PhyloError::parse(offset, "duplicate branch length"));
                }
                match lexer.next_token(true)? {
                    Token::Number(v) => tree.set_length(cur, Some(v)),
                    _ => {
                        return Err(PhyloError::parse(
                            offset,
                            "expected branch length after ':'",
                        ))
                    }
                }
            }
            Token::Semicolon => {
                if depth != 0 {
                    return Err(PhyloError::parse(
                        offset,
                        "unbalanced '(': tree ended early",
                    ));
                }
                finish_node(&tree, cur, offset)?;
                debug_assert_eq!(cur, root);
                return Ok(tree);
            }
            Token::Label(label) => {
                if named[cur.index()] || tree.taxon(cur).is_some() {
                    return Err(PhyloError::parse(
                        offset,
                        format!("unexpected second label {label:?}"),
                    ));
                }
                if tree.children(cur).is_empty() {
                    // leaf name → taxon
                    let id = resolve(&label)?;
                    tree.set_taxon(cur, Some(id));
                }
                // Internal labels (clade names / support values) are parsed
                // for dialect compatibility but not stored: nothing in the
                // RF pipeline reads them, and dropping them keeps nodes at
                // two words.
                named[cur.index()] = true;
            }
            Token::Number(_) => unreachable!("numbers only requested after ':'"),
        }
    }
}

/// A node is finished when `,`, `)` or `;` closes it: leaves must have
/// received a taxon by then.
fn finish_node(tree: &Tree, node: NodeId, offset: usize) -> Result<(), PhyloError> {
    if tree.children(node).is_empty() && tree.taxon(node).is_none() {
        return Err(PhyloError::parse(offset, "leaf without a label"));
    }
    Ok(())
}

/// Serialize `tree` to Newick, quoting labels when necessary and emitting
/// branch lengths where present. The output always ends with `;`.
pub fn write_newick(tree: &Tree, taxa: &TaxonSet) -> String {
    let mut out = String::new();
    if let Some(root) = tree.root() {
        write_node(tree, taxa, root, &mut out);
    }
    out.push(';');
    out
}

fn write_node(tree: &Tree, taxa: &TaxonSet, node: NodeId, out: &mut String) {
    // Iterative would complicate the in-order comma placement; tree depth is
    // bounded by leaf count and the writer is not on any hot path, but guard
    // against pathological caterpillars by using an explicit frame stack.
    enum Frame {
        Enter(NodeId),
        ChildSep,
        Exit(NodeId),
    }
    let mut stack = vec![Frame::Enter(node)];
    while let Some(frame) = stack.pop() {
        match frame {
            Frame::Enter(n) => {
                let kids = tree.children(n);
                if kids.is_empty() {
                    if let Some(t) = tree.taxon(n) {
                        push_label(taxa.label(t), out);
                    }
                    push_length(tree, n, out);
                } else {
                    out.push('(');
                    stack.push(Frame::Exit(n));
                    for (i, &c) in kids.iter().enumerate().rev() {
                        stack.push(Frame::Enter(c));
                        if i > 0 {
                            stack.push(Frame::ChildSep);
                        }
                    }
                }
            }
            Frame::ChildSep => out.push(','),
            Frame::Exit(n) => {
                out.push(')');
                push_length(tree, n, out);
            }
        }
    }
}

fn push_length(tree: &Tree, node: NodeId, out: &mut String) {
    if let Some(l) = tree.length(node) {
        out.push(':');
        out.push_str(&format_length(l));
    }
}

fn format_length(l: f64) -> String {
    // Shortest round-trippable representation keeps files compact.
    let mut s = format!("{l}");
    if !s.contains(['.', 'e', 'E']) {
        s.push_str(".0");
    }
    s
}

fn push_label(label: &str, out: &mut String) {
    let needs_quotes = label.is_empty()
        || label.chars().any(|c| {
            matches!(
                c,
                '(' | ')' | ',' | ':' | ';' | '[' | ']' | '\'' | ' ' | '\t'
            )
        });
    if needs_quotes {
        out.push('\'');
        for c in label.chars() {
            if c == '\'' {
                out.push('\'');
            }
            out.push(c);
        }
        out.push('\'');
    } else {
        out.push_str(label);
    }
}

/// Streaming reader yielding one tree at a time from a `BufRead` source.
///
/// Splits the byte stream on top-level `;` (respecting quotes and
/// comments), then parses each chunk. Memory stays proportional to one
/// tree, which is what lets BFHRF process 149k-tree files in O(hash) space.
pub struct NewickStream<R: BufRead> {
    reader: R,
    policy: TaxaPolicy,
    buf: Vec<u8>,
    done: bool,
}

impl<R: BufRead> NewickStream<R> {
    /// Create a stream with the given taxa policy.
    pub fn new(reader: R, policy: TaxaPolicy) -> Self {
        NewickStream {
            reader,
            policy,
            buf: Vec::new(),
            done: false,
        }
    }

    /// Read the next tree, resolving labels against `taxa`.
    ///
    /// Returns `Ok(None)` at end of input. The taxon set is passed per call
    /// (not owned) so one namespace can serve several streams — reference
    /// and query files in the BFHRF pipeline.
    pub fn next_tree(&mut self, taxa: &mut TaxonSet) -> Result<Option<Tree>, PhyloError> {
        if self.done {
            return Ok(None);
        }
        self.buf.clear();
        let mut in_quote = false;
        let mut comment_depth = 0usize;
        loop {
            let chunk = self.reader.fill_buf().map_err(|e| {
                PhyloError::parse(0, format!("I/O error reading newick stream: {e}"))
            })?;
            if chunk.is_empty() {
                self.done = true;
                if self.buf.iter().all(|b| b.is_ascii_whitespace()) {
                    return Ok(None);
                }
                return Err(PhyloError::parse(
                    self.buf.len(),
                    "unterminated tree at end of input (missing ';')",
                ));
            }
            let mut consumed = chunk.len();
            let mut complete = false;
            for (i, &b) in chunk.iter().enumerate() {
                self.buf.push(b);
                if in_quote {
                    if b == b'\'' {
                        in_quote = false; // '' escape re-enters on next quote
                    }
                } else if comment_depth > 0 {
                    match b {
                        b'[' => comment_depth += 1,
                        b']' => comment_depth -= 1,
                        _ => {}
                    }
                } else {
                    match b {
                        b'\'' => in_quote = true,
                        b'[' => comment_depth = 1,
                        b';' => {
                            consumed = i + 1;
                            complete = true;
                            break;
                        }
                        _ => {}
                    }
                }
            }
            self.reader.consume(consumed);
            if complete {
                let text = std::str::from_utf8(&self.buf)
                    .map_err(|_| PhyloError::parse(0, "invalid UTF-8 in newick stream"))?;
                return parse_newick(text, taxa, self.policy).map(Some);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grow(s: &str) -> (Tree, TaxonSet) {
        let mut taxa = TaxonSet::new();
        let t = parse_newick(s, &mut taxa, TaxaPolicy::Grow).expect("parse");
        (t, taxa)
    }

    #[test]
    fn parses_paper_example() {
        let (t, taxa) = grow("((A,B),(C,D));");
        assert_eq!(taxa.len(), 4);
        assert_eq!(t.leaf_count(), 4);
        assert!(t.is_binary());
        assert!(t.validate(&taxa).is_ok());
    }

    #[test]
    fn branch_lengths_parsed() {
        let (t, _) = grow("((A:0.1,B:2):1e-3,(C:3.5,D:4):0.5);");
        let lengths: Vec<f64> = t
            .postorder()
            .into_iter()
            .filter_map(|n| t.length(n))
            .collect();
        assert_eq!(lengths.len(), 6);
        assert!(lengths.contains(&0.1));
        assert!(lengths.contains(&1e-3));
    }

    #[test]
    fn quoted_labels_and_escapes() {
        let (t, taxa) = grow("('Homo sapiens','it''s complicated');");
        assert!(taxa.get("Homo sapiens").is_some());
        assert!(taxa.get("it's complicated").is_some());
        assert_eq!(t.leaf_count(), 2);
    }

    #[test]
    fn quoted_labels_decode_as_utf8() {
        // A closed namespace: quoting must not change which taxon a label is.
        let mut taxa = TaxonSet::new();
        let cafe = taxa.intern("Café");
        let homo = taxa.intern("Homo sapiens é");
        let bare = parse_newick("(Café,'Homo sapiens é');", &mut taxa, TaxaPolicy::Require);
        let quoted = parse_newick("('Café','Homo sapiens é');", &mut taxa, TaxaPolicy::Require);
        for t in [bare.unwrap(), quoted.unwrap()] {
            let leaves: Vec<_> = t.leaves().iter().map(|&n| t.taxon(n)).collect();
            assert_eq!(leaves, [Some(cafe), Some(homo)]);
        }
        assert_eq!(taxa.len(), 2);
        let (_, grown) = grow("('Café',B);");
        assert_eq!(grown.get("Café").map(|id| id.index()), Some(0));
    }

    /// Inputs covering every shape the node count must see through, with
    /// the text `write_newick` gives back for each.
    const ARENA_CASES: [(&str, &str); 6] = [
        (
            "((A:0.1,B:2):1e-3,(C:3.5,D:4):0.5);",
            "((A:0.1,B:2.0):0.001,(C:3.5,D:4.0):0.5);",
        ),
        ("(A,B,C,(D,E,F,G,H),I);", "(A,B,C,(D,E,F,G,H),I);"),
        ("A;", "A;"),
        (
            "('a(b',C,'d,e','f;g','it''s');",
            "('a(b',C,'d,e','f;g','it''s');",
        ),
        ("[c, (x) [nested, (y;)]]((A,B)[,(],C)[;];", "((A,B),C);"),
        ("((A,B)x:1,(C,D)'y, z');", "((A,B):1.0,(C,D));"),
    ];

    #[test]
    fn parsed_arenas_are_exact() {
        let exact = |t: &Tree| assert_eq!(t.node_capacity(), t.num_nodes(), "{t:?}");
        for (src, want) in ARENA_CASES {
            let mut taxa = TaxonSet::new();
            let t = parse_newick(src, &mut taxa, TaxaPolicy::Grow).unwrap();
            exact(&t);
            assert_eq!(write_newick(&t, &taxa), want);
            let t = parse_newick_readonly(src, &taxa).unwrap();
            exact(&t);
            assert_eq!(write_newick(&t, &taxa), want);
        }

        let all: String = ARENA_CASES
            .iter()
            .map(|(src, _)| format!("{src}\n"))
            .collect();
        let wants: Vec<&str> = ARENA_CASES.iter().map(|(_, want)| *want).collect();
        let check = |trees: &[Tree], taxa: &TaxonSet| {
            trees.iter().for_each(exact);
            let got: Vec<String> = trees.iter().map(|t| write_newick(t, taxa)).collect();
            assert_eq!(got, wants);
        };

        let mut taxa = TaxonSet::new();
        let trees = read_trees_from_str(&all, &mut taxa, TaxaPolicy::Grow).unwrap();
        check(&trees, &taxa);

        let (coll, _) =
            crate::ingest::read_collection(all.as_bytes(), crate::IngestPolicy::Strict).unwrap();
        check(&coll.trees, &coll.taxa);

        let mut taxa = TaxonSet::new();
        let mut stream = NewickStream::new(all.as_bytes(), TaxaPolicy::Grow);
        let mut trees = Vec::new();
        while let Some(t) = stream.next_tree(&mut taxa).unwrap() {
            trees.push(t);
        }
        check(&trees, &taxa);
    }

    #[test]
    fn arenas_are_exact_when_quotes_and_comments_straddle_count_blocks() {
        // Records longer than the count's 64-byte block, with the quote,
        // the comment and the `;` shifted across block boundaries.
        let long = "z".repeat(70);
        let mut all = String::new();
        for shift in 0..70 {
            let pad = "a".repeat(shift + 1);
            let src =
                format!("({pad},('b (,;'' {long}',[c (,;[n] {long}]C),(D{shift},E{long}):1.5);");
            let mut taxa = TaxonSet::new();
            let t = parse_newick(&src, &mut taxa, TaxaPolicy::Grow).unwrap();
            assert_eq!((t.node_capacity(), t.num_nodes()), (8, 8), "{src}");
            all.push_str(&src);
        }
        let mut taxa = TaxonSet::new();
        let trees = read_trees_from_str(&all, &mut taxa, TaxaPolicy::Grow).unwrap();
        assert_eq!(trees.len(), 70);
        assert!(trees.iter().all(|t| t.node_capacity() == t.num_nodes()));
    }

    #[test]
    fn comments_are_skipped_even_nested() {
        let (t, taxa) = grow("[header [nested]]((A[x],B):1[c],(C,D));");
        assert_eq!(taxa.len(), 4);
        assert_eq!(t.leaf_count(), 4);
    }

    #[test]
    fn internal_labels_accepted() {
        let (t, taxa) = grow("((A,B)clade1:0.5,(C,D)'clade 2');");
        assert_eq!(taxa.len(), 4, "internal labels must not become taxa");
        assert!(t.validate(&taxa).is_ok());
    }

    #[test]
    fn multifurcation_and_single_leaf() {
        let (t, _) = grow("(A,B,C,D,E);");
        assert_eq!(t.children(t.root().unwrap()).len(), 5);
        let (t2, taxa2) = grow("A;");
        assert_eq!(t2.leaf_count(), 1);
        assert_eq!(taxa2.len(), 1);
    }

    #[test]
    fn require_policy_rejects_unknown() {
        let mut taxa = TaxonSet::new();
        taxa.intern("A");
        taxa.intern("B");
        let ok = parse_newick("(A,B);", &mut taxa, TaxaPolicy::Require);
        assert!(ok.is_ok());
        let err = parse_newick("(A,X);", &mut taxa, TaxaPolicy::Require);
        assert_eq!(err.err(), Some(PhyloError::UnknownTaxon("X".into())));
        assert_eq!(taxa.len(), 2, "failed parse must not grow the namespace");
    }

    #[test]
    fn malformed_inputs_error_with_position() {
        let cases = [
            "((A,B);",     // unbalanced (
            "(A,B));",     // unbalanced )
            "(A,,B);",     // empty sibling
            "(A,B)",       // missing ;
            "(A,B); junk", // trailing garbage
            "(A:x,B);",    // bad number
            "('A,B);",     // unterminated quote
            "[(A,B);",     // unterminated comment
            "(A B,C);",    // two labels on one node
            ",A;",         // comma at top level
            "(A,B)(C,D);", // second structure after close
            "();",         // unlabeled leaf
        ];
        let mut taxa = TaxonSet::new();
        for c in cases {
            let r = parse_newick(c, &mut taxa, TaxaPolicy::Grow);
            assert!(r.is_err(), "input {c:?} should fail, got {r:?}");
        }
    }

    #[test]
    fn duplicate_leaf_labels_detected_by_validate() {
        let (t, taxa) = grow("((A,B),(A,C));");
        assert_eq!(
            t.validate(&taxa),
            Err(PhyloError::DuplicateTaxon("A".into()))
        );
    }

    #[test]
    fn writer_roundtrips_topology_and_lengths() {
        let src = "((A:0.1,'B b':2.0):0.5,(C:3.5,D:4.0):0.5);";
        let (t, mut taxa) = grow(src);
        let written = write_newick(&t, &taxa);
        let t2 = parse_newick(&written, &mut taxa, TaxaPolicy::Require).unwrap();
        assert_eq!(write_newick(&t2, &taxa), written, "stable after one cycle");
        assert_eq!(t2.leaf_count(), 4);
    }

    #[test]
    fn writer_quotes_when_needed() {
        let mut taxa = TaxonSet::new();
        let odd = taxa.intern("needs (quoting)");
        let plain = taxa.intern("plain");
        let (mut t, root) = Tree::with_root();
        t.add_leaf(root, odd);
        t.add_leaf(root, plain);
        let s = write_newick(&t, &taxa);
        assert_eq!(s, "('needs (quoting)',plain);");
    }

    #[test]
    fn multi_tree_string() {
        let mut taxa = TaxonSet::new();
        let trees =
            read_trees_from_str("(A,B);\n(A,C);(B,C);", &mut taxa, TaxaPolicy::Grow).unwrap();
        assert_eq!(trees.len(), 3);
        assert_eq!(taxa.len(), 3);
    }

    #[test]
    fn stream_yields_trees_one_by_one() {
        let data = "((A,B),(C,D));\n((A,C),(B,D)); [note] ((A,D),(B,C));";
        let mut taxa = TaxonSet::new();
        let mut stream = NewickStream::new(data.as_bytes(), TaxaPolicy::Grow);
        let mut count = 0;
        while let Some(t) = stream.next_tree(&mut taxa).unwrap() {
            assert_eq!(t.leaf_count(), 4);
            count += 1;
        }
        assert_eq!(count, 3);
        assert_eq!(taxa.len(), 4);
        // exhausted stream stays exhausted
        assert!(stream.next_tree(&mut taxa).unwrap().is_none());
    }

    #[test]
    fn stream_handles_semicolons_inside_quotes_and_comments() {
        let data = "('a;b',C);[x;y](C,'a;b');";
        let mut taxa = TaxonSet::new();
        let mut stream = NewickStream::new(data.as_bytes(), TaxaPolicy::Grow);
        let t1 = stream.next_tree(&mut taxa).unwrap().unwrap();
        let t2 = stream.next_tree(&mut taxa).unwrap().unwrap();
        assert!(stream.next_tree(&mut taxa).unwrap().is_none());
        assert_eq!(t1.leaf_count(), 2);
        assert_eq!(t2.leaf_count(), 2);
        assert_eq!(taxa.len(), 2);
    }

    #[test]
    fn stream_reports_unterminated_tree() {
        let mut taxa = TaxonSet::new();
        let mut stream = NewickStream::new("(A,B)".as_bytes(), TaxaPolicy::Grow);
        assert!(stream.next_tree(&mut taxa).is_err());
    }

    #[test]
    fn whitespace_tolerant() {
        let (t, taxa) = grow("  (\n  (A , B) ,\t(C,D)\n) ;");
        assert_eq!(t.leaf_count(), 4);
        assert!(t.validate(&taxa).is_ok());
    }
}
