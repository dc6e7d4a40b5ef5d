//! Newick tree serialization: lexer, parser, split emitter, writer.
//!
//! The dialect follows what Dendropy (the paper's foundation) accepts:
//!
//! * unquoted labels (`Homo_sapiens`), single-quoted labels with `''`
//!   escaping (`'Homo sapiens (human)'`),
//! * bracket comments `[...]`, which may nest,
//! * branch lengths after `:`, in any spelling `f64::from_str` accepts
//!   (`1`, `0.5`, `5.`, `+.5`, `1E+3`, `inf`, `NaN`),
//! * internal node labels (accepted; the RF pipeline does not read them),
//! * multifurcations and single-leaf trees.
//!
//! One lexer, which allocates nothing (labels are borrowed, and only a
//! quoted label holding `''` is copied to unescape it), feeds one walk of
//! the grammar, which holds per-parenthesis state only and makes every
//! refusal. The walk has two consumers: [`parse_newick`] builds a
//! [`Tree`], and the split emitter (`parse_shape`) keeps only the tree's
//! postorder shape, for [`crate::BipartitionScratch`] to turn into
//! canonical split masks, so the build and query paths never materialise
//! a tree. Both accept and refuse the same inputs, with the same errors at
//! the same offsets. The walk is iterative (no recursion), so deeply
//! nested caterpillar trees cannot overflow the stack. Streamed
//! multi-record input goes through [`crate::NewickReader`].

use crate::scratch::{Shapes, NO_TAXON};
use crate::taxa::{TaxonId, TaxonSet};
use crate::tree::{NodeId, Tree};
use crate::PhyloError;
use std::borrow::Cow;

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
enum Token<'a> {
    Open,
    Close,
    Comma,
    Colon,
    Semicolon,
    Label(Cow<'a, str>),
    /// A branch length whose syntax was checked, and where it starts.
    Length(usize, &'a str),
}

struct Lexer<'a> {
    text: &'a str,
    input: &'a [u8],
    pos: usize,
    /// Where the last token read started (for error messages).
    start: usize,
}

impl<'a> Lexer<'a> {
    fn new(text: &'a str) -> Self {
        Lexer {
            text,
            input: text.as_bytes(),
            pos: 0,
            start: 0,
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

    /// `expect_length` is true right after a `:` — there (and only there)
    /// bare tokens are branch lengths rather than labels. Every slice is
    /// cut at an ASCII byte, so it is a `str` of the input.
    fn next_token(&mut self, expect_length: bool) -> Result<Token<'a>, PhyloError> {
        self.skip_trivia()?;
        let start = self.pos;
        self.start = start;
        let Some(&b) = self.input.get(self.pos) else {
            return Err(PhyloError::parse(start, "unexpected end of input"));
        };
        let token = match b {
            b'(' => Token::Open,
            b')' => Token::Close,
            b',' => Token::Comma,
            b':' => Token::Colon,
            b';' => Token::Semicolon,
            b'\'' => {
                // Find the closing quote (`''` is an escaped quote).
                let mut end = start + 1;
                let mut escaped = false;
                loop {
                    match self.input.get(end) {
                        None => return Err(PhyloError::parse(start, "unterminated quoted label")),
                        Some(b'\'') if self.input.get(end + 1) == Some(&b'\'') => {
                            escaped = true;
                            end += 2;
                        }
                        Some(b'\'') => break,
                        Some(_) => end += 1,
                    }
                }
                let text = &self.text[start + 1..end];
                self.pos = end + 1;
                return Ok(Token::Label(if escaped {
                    Cow::Owned(text.replace("''", "'"))
                } else {
                    Cow::Borrowed(text)
                }));
            }
            _ => {
                // A bare token runs until a structural character. After a
                // `:` it is a branch length: plain decimal and scientific
                // spellings are checked as they are scanned, without
                // building the number; anything else (`inf`, `NaN`, or not
                // a number at all) is left to `f64::from_str`, so the
                // accepted set is exactly `from_str`'s.
                if expect_length {
                    if let Some(end) = decimal_end(self.input, start) {
                        self.pos = end;
                        return Ok(Token::Length(start, &self.text[start..end]));
                    }
                }
                self.pos = start + 1;
                while self.pos < self.input.len() && !ENDS_BARE[usize::from(self.input[self.pos])] {
                    self.pos += 1;
                }
                let text = &self.text[start..self.pos];
                if !expect_length {
                    return Ok(Token::Label(Cow::Borrowed(text)));
                }
                if text.parse::<f64>().is_err() {
                    return Err(invalid_length(start, text));
                }
                return Ok(Token::Length(start, text));
            }
        };
        self.pos += 1;
        Ok(token)
    }
}

fn invalid_length(at: usize, text: &str) -> PhyloError {
    PhyloError::parse(at, format!("invalid branch length {text:?}"))
}

/// The bytes that end a bare token: structural characters and ASCII
/// whitespace.
const ENDS_BARE: [bool; 256] = {
    let mut table = [false; 256];
    let ends = b"():,;['\t\n\x0C\r ";
    let mut i = 0;
    while i < ends.len() {
        table[ends[i] as usize] = true;
        i += 1;
    }
    table
};

/// The end of the bare token at `start` if it is a plain decimal or
/// scientific number (`[+-]` digits `[.` digits`]` `[e[+-]digits]`, with a
/// digit in the mantissa): a spelling `f64::from_str` accepts.
fn decimal_end(s: &[u8], start: usize) -> Option<usize> {
    let mut i = start + usize::from(matches!(s.get(start), Some(b'+' | b'-')));
    let mut end = digits_end(s, i);
    let mut mantissa = end - i;
    i = end;
    if s.get(i) == Some(&b'.') {
        end = digits_end(s, i + 1);
        mantissa += end - i - 1;
        i = end;
    }
    if mantissa == 0 {
        return None;
    }
    if matches!(s.get(i), Some(b'e' | b'E')) {
        i += 1;
        i += usize::from(matches!(s.get(i), Some(b'+' | b'-')));
        end = digits_end(s, i);
        if end == i {
            return None;
        }
        i = end;
    }
    s.get(i)
        .is_none_or(|&b| ENDS_BARE[usize::from(b)])
        .then_some(i)
}

/// The end of the run of ASCII digits at `i`, eight bytes at a time: a
/// byte is a digit when, less `'0'`, its high nibble is clear and adding 6
/// does not carry into it. A carry only runs upward, so the lowest flagged
/// byte is the first non-digit.
fn digits_end(s: &[u8], mut i: usize) -> usize {
    const LOW: u64 = u64::from_le_bytes([b'0'; 8]);
    const SIX: u64 = u64::from_le_bytes([6; 8]);
    const HIGH: u64 = u64::from_le_bytes([0xF0; 8]);
    while let Some(chunk) = s.get(i..).and_then(<[u8]>::first_chunk::<8>) {
        let x = u64::from_le_bytes(*chunk) ^ LOW;
        let stop = (x | x.wrapping_add(SIX)) & HIGH;
        if stop != 0 {
            return i + (stop.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while s.get(i).is_some_and(u8::is_ascii_digit) {
        i += 1;
    }
    i
}

/// Parse one Newick tree (terminated by `;`) from `input`.
///
/// Leaf labels are resolved against `taxa` under `policy`. Internal labels
/// (support values etc.) are accepted but not stored. Trailing content
/// after the `;` is an error — use [`read_trees_from_str`] or
/// [`crate::NewickReader`] for multi-tree inputs.
pub fn parse_newick(
    input: &str,
    taxa: &mut TaxonSet,
    policy: TaxaPolicy,
) -> Result<Tree, PhyloError> {
    let mut lexer = Lexer::new(input);
    let tree = parse_one(&mut lexer, &mut policy_resolver(taxa, policy))?;
    expect_end(&mut lexer)?;
    Ok(tree)
}

/// [`parse_newick`] against a **shared** namespace with
/// [`TaxaPolicy::Require`] semantics: unknown labels error, the namespace
/// is never mutated, and — unlike cloning the set to satisfy the `&mut`
/// parser signature — nothing is allocated per call.
pub fn parse_newick_readonly(input: &str, taxa: &TaxonSet) -> Result<Tree, PhyloError> {
    let mut lexer = Lexer::new(input);
    let tree = parse_one(&mut lexer, &mut |label| taxa.require(label))?;
    expect_end(&mut lexer)?;
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

/// Refuse anything but trivia after a tree's `;`.
fn expect_end(lexer: &mut Lexer<'_>) -> Result<(), PhyloError> {
    if lexer.at_end()? {
        Ok(())
    } else {
        Err(PhyloError::parse(
            lexer.offset(),
            "trailing content after ';'",
        ))
    }
}

/// Label resolution under a [`TaxaPolicy`], as a closure so the parser
/// core is agnostic to whether the namespace can grow.
pub(crate) fn policy_resolver(
    taxa: &mut TaxonSet,
    policy: TaxaPolicy,
) -> impl FnMut(&str) -> Result<TaxonId, PhyloError> + '_ {
    move |label| match policy {
        TaxaPolicy::Grow => Ok(taxa.intern(label)),
        TaxaPolicy::Require => taxa.require(label),
    }
}

/// Where a byte scan stands with respect to quoted labels and (nested)
/// comments: the one rule both the node count and the record splitter
/// ([`crate::NewickReader`]) follow, so neither sees a `(`, `,` or `;`
/// inside a label or a comment.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Trivia {
    in_quote: bool,
    comment_depth: usize,
}

impl Trivia {
    /// Bytes a scan takes at once when it is outside quotes and comments.
    pub(crate) const BLOCK: usize = 64;

    /// Outside quotes and comments.
    #[inline]
    pub(crate) fn plain(&self) -> bool {
        !self.in_quote && self.comment_depth == 0
    }

    /// Whether the block holds a byte that starts a quote or a comment, or
    /// ends a record. `|` rather than `||`/`matches!`: no branches, so the
    /// loop vectorizes (about 10x faster than the byte loop).
    #[inline]
    pub(crate) fn block_stops(block: &[u8; Self::BLOCK]) -> bool {
        let mut stops = 0u8;
        for &b in block {
            stops |= u8::from(b == b'\'') | u8::from(b == b'[') | u8::from(b == b';');
        }
        stops != 0
    }

    /// Step over `b`: whether it is structural, outside quotes and
    /// comments.
    #[inline]
    pub(crate) fn structural(&mut self, b: u8) -> bool {
        if self.in_quote {
            // `''` leaves the quote and re-enters it at the next byte.
            self.in_quote = b != b'\'';
        } else if self.comment_depth > 0 {
            match b {
                b'[' => self.comment_depth += 1,
                b']' => self.comment_depth -= 1,
                _ => {}
            }
        } else {
            match b {
                b'\'' => self.in_quote = true,
                b'[' => self.comment_depth = 1,
                _ => return true,
            }
        }
        false
    }
}

/// The number of nodes the record at the start of `input` builds: the root,
/// plus one per `(` and one per `,` before its terminating `;`, skipping
/// quoted labels and nested `[...]` comments as the lexer does. Every node
/// the parser adds comes from one of those bytes, so the count is exact for
/// a record that parses and an upper bound for one that fails part-way.
///
/// The scan runs before every parse, so it goes a block at a time: a
/// block outside quotes and comments that holds no `'`, `[` or `;`
/// (almost every block of a real record) is counted in one branch-free
/// pass; any other block goes byte by byte.
fn record_node_count(input: &[u8]) -> usize {
    let mut count = 1;
    let mut trivia = Trivia::default();
    let mut i = 0;
    while i < input.len() {
        if trivia.plain() {
            if let Some(block) = input[i..].first_chunk::<{ Trivia::BLOCK }>() {
                if !Trivia::block_stops(block) {
                    let nodes: u8 = block
                        .iter()
                        .map(|&b| u8::from(b == b'(') | u8::from(b == b','))
                        .sum();
                    count += usize::from(nodes);
                    i += Trivia::BLOCK;
                    continue;
                }
            }
        }
        let end = (i + Trivia::BLOCK).min(input.len());
        for &b in &input[i..end] {
            if trivia.structural(b) {
                match b {
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
    resolve: &mut dyn FnMut(&str) -> Result<TaxonId, PhyloError>,
) -> Result<Tree, PhyloError> {
    // Sized from the record's own count, the arena never regrows and holds
    // exactly `num_nodes()` slots once the tree parses.
    let mut tree = Tree::with_node_capacity(record_node_count(&lexer.input[lexer.pos..]));
    let cur = tree.add_root();
    let mut build = TreeBuild { tree, cur };
    parse_tree(lexer, resolve, &mut Vec::new(), &mut build)?;
    Ok(build.tree)
}

/// The split emitter: append the one Newick tree in `input` to `shapes`
/// as its postorder shape, with `frames` as the stack of open
/// parentheses. It runs [`parse_newick`]'s grammar, refusals and label
/// resolution, but builds no node and no branch length's `f64`. A refused
/// record leaves `shapes` as it was.
pub(crate) fn parse_shape(
    input: &str,
    resolve: &mut dyn FnMut(&str) -> Result<TaxonId, PhyloError>,
    shapes: &mut Shapes,
    frames: &mut Vec<Frame>,
) -> Result<(), PhyloError> {
    let mark = shapes.mark();
    let mut lexer = Lexer::new(input);
    let parsed =
        parse_tree(&mut lexer, resolve, frames, shapes).and_then(|()| expect_end(&mut lexer));
    match parsed {
        Ok(()) => shapes.end_tree(),
        Err(_) => shapes.rewind(mark),
    }
    parsed
}

/// What a parse builds while [`parse_tree`] walks the grammar. The walk
/// checks the grammar and keeps the per-node state every refusal needs,
/// so whatever is built, the same inputs are refused with the same errors
/// at the same offsets.
trait Build {
    /// `(`: the current node's first child becomes current.
    fn open(&mut self);
    /// `,`: the current node's next sibling becomes current.
    fn sibling(&mut self);
    /// `)`: the current node's parent becomes current.
    fn close(&mut self);
    /// The current node, a leaf, is taxon `id`.
    fn taxon(&mut self, id: TaxonId);
    /// The current node's branch length: `text`, checked, at `at`.
    fn length(&mut self, at: usize, text: &str) -> Result<(), PhyloError>;
    /// The current node is finished, with `kids` children and `taxon`
    /// ([`NO_TAXON`] unless it is a leaf).
    fn finish(&mut self, taxon: u32, kids: u32);
}

/// A [`Tree`] being parsed, and its current node.
struct TreeBuild {
    tree: Tree,
    cur: NodeId,
}

impl Build for TreeBuild {
    fn open(&mut self) {
        self.cur = self.tree.add_child(self.cur);
    }

    fn sibling(&mut self) {
        let parent = self.tree.parent(self.cur).expect("',' comes inside '('");
        self.cur = self.tree.add_child(parent);
    }

    fn close(&mut self) {
        self.cur = self.tree.parent(self.cur).expect("')' closes a '('");
    }

    fn taxon(&mut self, id: TaxonId) {
        self.tree.set_taxon(self.cur, Some(id));
    }

    fn length(&mut self, at: usize, text: &str) -> Result<(), PhyloError> {
        let length = text.parse::<f64>().map_err(|_| invalid_length(at, text))?;
        self.tree.set_length(self.cur, Some(length));
        Ok(())
    }

    fn finish(&mut self, _taxon: u32, _kids: u32) {}
}

/// The split emitter keeps only the postorder shape.
impl Build for Shapes {
    fn open(&mut self) {}

    fn sibling(&mut self) {}

    fn close(&mut self) {}

    fn taxon(&mut self, _id: TaxonId) {}

    fn length(&mut self, _at: usize, _text: &str) -> Result<(), PhyloError> {
        Ok(())
    }

    fn finish(&mut self, taxon: u32, kids: u32) {
        self.push_node(taxon, kids);
    }
}

/// An open parenthesis: how many children its node has finished so far,
/// and whether the node already has a branch length (a length may come
/// before the `(`).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Frame {
    kids: u32,
    has_length: bool,
}

/// The node being read.
#[derive(Debug, Clone, Copy)]
struct Node {
    frame: Frame,
    named: bool,
    taxon: u32,
}

impl Node {
    fn fresh(frame: Frame) -> Node {
        Node {
            frame,
            named: false,
            taxon: NO_TAXON,
        }
    }
}

/// Walk one tree's tokens up to its `;`, resolving leaf labels through
/// `resolve` in order, and build it into `build`. The refusals: a second
/// label, `(` after a label or a closed node, `,`/`)` outside
/// parentheses, a duplicate or missing branch length, a leaf without a
/// label and an early `;`, besides the lexer's and `resolve`'s own.
fn parse_tree(
    lexer: &mut Lexer<'_>,
    resolve: &mut dyn FnMut(&str) -> Result<TaxonId, PhyloError>,
    frames: &mut Vec<Frame>,
    build: &mut impl Build,
) -> Result<(), PhyloError> {
    frames.clear();
    let mut cur = Node::fresh(Frame::default());
    // A node is finished when `,`, `)` or `;` closes it: leaves must have
    // received a taxon by then.
    let finish = |cur: &Node, offset: usize, build: &mut _| {
        if cur.frame.kids == 0 && cur.taxon == NO_TAXON {
            return Err(PhyloError::parse(offset, "leaf without a label"));
        }
        Build::finish(build, cur.taxon, cur.frame.kids);
        Ok(())
    };
    loop {
        let token = lexer.next_token(false)?;
        let offset = lexer.start;
        match token {
            Token::Open => {
                if cur.named {
                    return Err(PhyloError::parse(offset, "unexpected '(' after label"));
                }
                if cur.frame.kids > 0 {
                    return Err(PhyloError::parse(
                        offset,
                        "unexpected '(': node already closed",
                    ));
                }
                frames.push(cur.frame);
                cur = Node::fresh(Frame::default());
                build.open();
            }
            Token::Comma => {
                if frames.is_empty() {
                    return Err(PhyloError::parse(offset, "',' outside parentheses"));
                }
                finish(&cur, offset, build)?;
                if let Some(parent) = frames.last_mut() {
                    parent.kids += 1;
                }
                cur = Node::fresh(Frame::default());
                build.sibling();
            }
            Token::Close => {
                let Some(mut parent) = frames.pop() else {
                    return Err(PhyloError::parse(offset, "unbalanced ')'"));
                };
                finish(&cur, offset, build)?;
                parent.kids += 1;
                cur = Node::fresh(parent);
                build.close();
            }
            Token::Colon => {
                if cur.frame.has_length {
                    return Err(PhyloError::parse(offset, "duplicate branch length"));
                }
                let Token::Length(at, text) = lexer.next_token(true)? else {
                    return Err(PhyloError::parse(
                        offset,
                        "expected branch length after ':'",
                    ));
                };
                build.length(at, text)?;
                cur.frame.has_length = true;
            }
            Token::Semicolon => {
                if !frames.is_empty() {
                    return Err(PhyloError::parse(
                        offset,
                        "unbalanced '(': tree ended early",
                    ));
                }
                return finish(&cur, offset, build);
            }
            Token::Label(label) => {
                if cur.named {
                    return Err(PhyloError::parse(
                        offset,
                        format!("unexpected second label {label:?}"),
                    ));
                }
                if cur.frame.kids == 0 {
                    // Leaf name → taxon. Internal labels (clade names,
                    // support values) are accepted for dialect
                    // compatibility, but nothing in the RF pipeline reads
                    // them, so they are not kept.
                    let id = resolve(&label)?;
                    cur.taxon = id.0;
                    build.taxon(id);
                }
                cur.named = true;
            }
            Token::Length(..) => unreachable!("lengths only requested after ':'"),
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A strict streaming reader over `text`, growing the namespace.
    fn reader(text: &str) -> crate::NewickReader<&[u8]> {
        crate::NewickReader::new(
            text.as_bytes(),
            TaxaPolicy::Grow,
            crate::IngestPolicy::Strict,
        )
    }

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
        let mut stream = reader(&all);
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
        let mut stream = reader(data);
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
        let mut stream = reader(data);
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
        let mut stream = reader("(A,B)");
        assert!(stream.next_tree(&mut taxa).is_err());
    }

    #[test]
    fn whitespace_tolerant() {
        let (t, taxa) = grow("  (\n  (A , B) ,\t(C,D)\n) ;");
        assert_eq!(t.leaf_count(), 4);
        assert!(t.validate(&taxa).is_ok());
    }
}
