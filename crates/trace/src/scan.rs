//! The one line scanner behind every text reader of this crate:
//! [`codec_text::from_text`](crate::codec_text::from_text), the three
//! corpus adapters and the CCDF fingerprint check.
//!
//! All of them read the same shape — one record per line, `#`
//! comments, blank lines, fields separated by whitespace (commas for
//! SASSY) — and each used to spell out `lines().enumerate()`, `trim`,
//! the blank/comment test and a `split_whitespace().collect::<Vec<_>>()`
//! of its own, which made tokenising (a heap allocation and a `char`
//! decode of every byte) cost more than parsing the numbers. Here the
//! rules exist once:
//!
//! * [`Lines`] numbers lines from 1, splits at `\n`, trims Unicode
//!   whitespace (so `\r\n` endings vanish), passes over blank lines
//!   and, on request, `#` comments, and counts what it passed over;
//! * one leading byte-order mark is stripped — the usual state of a
//!   corpus that went through a Windows tool — and only there: U+FEFF
//!   anywhere else is part of a token, and an error where a number was
//!   expected;
//! * [`split`] is `str::split_whitespace` into a stack array: bytewise
//!   on ASCII lines (where whitespace is exactly `\t \n \x0b \x0c \r`
//!   and the space), `split_whitespace` itself on any other line, so
//!   an EM SPACE still separates fields. No allocation either way.
//!   [`first_n`] is its collecting half alone, for the SASSY reader,
//!   whose fields are separated by commas.

/// The trimmed, non-blank lines of a text with their 1-based numbers.
pub(crate) struct Lines<'a> {
    rest: &'a str,
    line: usize,
    skipped: usize,
}

impl<'a> Lines<'a> {
    /// Starts at the top of `text`, past a leading byte-order mark.
    pub(crate) fn new(text: &'a str) -> Lines<'a> {
        Lines {
            rest: text.strip_prefix('\u{feff}').unwrap_or(text),
            line: 0,
            skipped: 0,
        }
    }

    /// The next non-blank line, trimmed, with its line number.
    pub(crate) fn next_line(&mut self) -> Option<(usize, &'a str)> {
        while !self.rest.is_empty() {
            let (raw, rest) = self.rest.split_once('\n').unwrap_or((self.rest, ""));
            self.rest = rest;
            self.line += 1;
            let content = raw.trim();
            if !content.is_empty() {
                return Some((self.line, content));
            }
            self.skipped += 1;
        }
        None
    }

    /// The next line that is neither blank nor a `#` comment.
    pub(crate) fn next_record(&mut self) -> Option<(usize, &'a str)> {
        loop {
            let (line, content) = self.next_line()?;
            if !content.starts_with('#') {
                return Some((line, content));
            }
            self.skipped += 1;
        }
    }

    /// Lines read so far: all of them, once a `next_*` returned `None`.
    pub(crate) fn lines_read(&self) -> usize {
        self.line
    }

    /// Blank lines, and comments `next_record` passed over, so far.
    pub(crate) fn lines_skipped(&self) -> usize {
        self.skipped
    }
}

/// What `char::is_whitespace` accepts below U+0080.
fn is_ascii_space(byte: u8) -> bool {
    matches!(byte, b'\t'..=b'\r' | b' ')
}

/// Collects into a stack array instead of a `Vec`: the first `N`
/// pieces, and how many pieces there are in all (so a reader of
/// five-field records can still say "got 7").
pub(crate) fn first_n<'a, const N: usize>(
    pieces: impl Iterator<Item = &'a str>,
) -> ([&'a str; N], usize) {
    let mut first = [""; N];
    let mut count = 0usize;
    for piece in pieces {
        if let Some(slot) = first.get_mut(count) {
            *slot = piece;
        }
        count += 1;
    }
    (first, count)
}

/// The whitespace-separated tokens of an all-ASCII line, bytewise.
fn ascii_tokens(content: &str) -> impl Iterator<Item = &str> {
    let bytes = content.as_bytes();
    let mut at = 0usize;
    std::iter::from_fn(move || {
        while at < bytes.len() && is_ascii_space(bytes[at]) {
            at += 1;
        }
        let start = at;
        while at < bytes.len() && !is_ascii_space(bytes[at]) {
            at += 1;
        }
        // Every index of an ASCII string is a char boundary.
        (start < at).then(|| &content[start..at])
    })
}

/// [`first_n`] of `content.split_whitespace()`.
pub(crate) fn split<const N: usize>(content: &str) -> ([&str; N], usize) {
    if content.is_ascii() {
        first_n(ascii_tokens(content))
    } else {
        first_n(content.split_whitespace())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn records(text: &str) -> Vec<(usize, &str)> {
        let mut lines = Lines::new(text);
        std::iter::from_fn(|| lines.next_record()).collect()
    }

    #[test]
    fn lines_are_numbered_trimmed_and_counted() {
        let text = "# head\n\n  a b \r\n\t\r\nc\n # note\n   d";
        let mut lines = Lines::new(text);
        assert_eq!(lines.next_line(), Some((1, "# head")));
        assert_eq!(lines.next_record(), Some((3, "a b")));
        assert_eq!(lines.next_record(), Some((5, "c")));
        assert_eq!(lines.next_record(), Some((7, "d")));
        assert_eq!(lines.next_record(), None);
        assert_eq!(lines.next_line(), None);
        assert_eq!(lines.lines_read(), text.lines().count());
        // Lines 2 and 4 are blank, line 6 is a comment; line 1 was
        // handed out by `next_line`, so it is not counted as skipped.
        assert_eq!(lines.lines_skipped(), 3);
    }

    #[test]
    fn line_counts_match_str_lines_at_every_ending() {
        for text in [
            "", "\n", "a", "a\n", "a\n\n", "a\r\n", "a\nb", "\n\na", "a\r",
        ] {
            let mut lines = Lines::new(text);
            while lines.next_line().is_some() {}
            assert_eq!(lines.lines_read(), text.lines().count(), "{text:?}");
        }
    }

    #[test]
    fn one_leading_bom_is_stripped_and_no_other() {
        assert_eq!(records("\u{feff}x 1\ny"), [(1, "x 1"), (2, "y")]);
        assert_eq!(records("\u{feff}# c\nx"), [(2, "x")]);
        assert_eq!(records("\u{feff}\u{feff}x"), [(1, "\u{feff}x")]);
        assert_eq!(records("x\n\u{feff}y"), [(1, "x"), (2, "\u{feff}y")]);
        assert_eq!(records(" \u{feff}x"), [(1, "\u{feff}x")]);
    }

    #[test]
    fn split_reports_the_first_n_tokens_and_the_whole_count() {
        assert_eq!(split::<3>("a  bb\tc"), (["a", "bb", "c"], 3));
        assert_eq!(split::<3>("a b"), (["a", "b", ""], 2));
        assert_eq!(split::<2>(" a b c d "), (["a", "b"], 4));
        assert_eq!(split::<2>(""), (["", ""], 0));
        // Vertical tab (which `u8::is_ascii_whitespace` would miss)
        // and form feed separate; the C0 "separators" U+001C..U+001F
        // are not `White_Space` and do not.
        assert_eq!(split::<3>("a\u{b}b\u{c}c"), (["a", "b", "c"], 3));
        assert_eq!(split::<2>("a\u{1c}b\u{1f}c"), (["a\u{1c}b\u{1f}c", ""], 1));
        // One non-ASCII character anywhere sends the line to std.
        assert_eq!(split::<3>("a\u{2003}b c"), (["a", "b", "c"], 3));
        assert_eq!(split::<2>("é\u{a0}b"), (["é", "b"], 2));
    }

    /// Every `White_Space` code point, the ASCII bytes most likely to
    /// be mistaken for one, and some ordinary characters.
    const ALPHABET: [char; 40] = [
        '\t', '\n', '\u{b}', '\u{c}', '\r', ' ', '\u{85}', '\u{a0}', '\u{1680}', '\u{2000}',
        '\u{2001}', '\u{2002}', '\u{2003}', '\u{2004}', '\u{2005}', '\u{2006}', '\u{2007}',
        '\u{2008}', '\u{2009}', '\u{200a}', '\u{2028}', '\u{2029}', '\u{202f}', '\u{205f}',
        '\u{3000}', '\u{1c}', '\u{1f}', '\u{0}', '\u{7f}', '\u{200b}', '\u{feff}', 'a', 'Z', '0',
        '.', '#', ',', 'é', '中', '🛰',
    ];

    /// What most of a log is made of.
    const COMMON: [char; 12] = [
        'a', 'b', '0', '7', '.', '#', ' ', ' ', '\t', '\n', '\n', '\r',
    ];

    fn soup(len: usize) -> impl Strategy<Value = String> {
        // Three draws in four are common ASCII, so that whole lines
        // take the bytewise path and still meet every odd character.
        prop::collection::vec((0usize..ALPHABET.len(), 0u32..4), 0..len).prop_map(|draws| {
            draws
                .into_iter()
                .map(|(i, bias)| match bias {
                    0 => ALPHABET[i],
                    _ => COMMON[i % COMMON.len()],
                })
                .collect()
        })
    }

    proptest! {
        #[test]
        fn split_agrees_with_split_whitespace(text in soup(48), ascii_only in any::<bool>()) {
            let text: String = text.chars().filter(|c| !ascii_only || c.is_ascii()).collect();
            let want: Vec<&str> = text.split_whitespace().collect();
            let (tokens, count) = split::<4>(&text);
            prop_assert_eq!(count, want.len(), "{:?}", text);
            for (i, token) in tokens.iter().enumerate() {
                prop_assert_eq!(*token, want.get(i).copied().unwrap_or(""), "{:?}", text);
            }
        }

        #[test]
        fn lines_agree_with_lines_trim_and_skip(text in soup(120)) {
            let want: Vec<(usize, &str)> = text
                .lines()
                .enumerate()
                .map(|(i, line)| (i + 1, line.trim()))
                .filter(|(_, line)| !line.is_empty() && !line.starts_with('#'))
                .collect();
            // A leading BOM is the one place the scanner differs.
            prop_assume!(!text.starts_with('\u{feff}'));
            let mut lines = Lines::new(&text);
            let got: Vec<(usize, &str)> = std::iter::from_fn(|| lines.next_record()).collect();
            prop_assert_eq!(&got, &want, "{:?}", text);
            prop_assert_eq!(lines.lines_read(), text.lines().count());
            prop_assert_eq!(lines.lines_read() - lines.lines_skipped(), want.len());
        }
    }
}
