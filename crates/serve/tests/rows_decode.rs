//! Decode-parity suite for `api::decode_rows`: on every body — arbitrary
//! text, valid bodies, and valid bodies with one mutation applied — it must
//! give exactly what the general path gives
//! (`serde_json::from_str::<RowsRequest>` + `to_matrix`): the same matrix
//! by `to_bits`, or the same error `code` and message.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use sls_serve::api::{code, decode_rows};
use sls_serve::RowsRequest;

type Decoded = Result<(usize, usize, Vec<u64>), (&'static str, String)>;

fn general(body: &str) -> Decoded {
    let rows: RowsRequest = serde_json::from_str(body)
        .map_err(|e| (code::INVALID_BODY, format!("invalid JSON body: {e}")))?;
    let matrix = rows
        .to_matrix()
        .map_err(|message| (code::BAD_ROW_WIDTH, message))?;
    Ok(bits(&matrix))
}

fn bits(matrix: &sls_linalg::Matrix) -> (usize, usize, Vec<u64>) {
    let (rows, cols) = matrix.shape();
    (
        rows,
        cols,
        matrix.as_slice().iter().map(|x| x.to_bits()).collect(),
    )
}

/// Asserts parity on `body` and returns the shared outcome.
fn assert_parity(body: &str) -> Decoded {
    let fast = decode_rows(body).map(|m| bits(&m));
    let slow = general(body);
    assert_eq!(fast, slow, "decode_rows diverged on {body:?}");
    fast
}

const WHITESPACE: [&str; 5] = ["", " ", "\n", "\t", "\r\n  "];

/// A body template: number texts per row plus whitespace drawn per gap, so
/// single-token mutations can be applied before rendering.
#[derive(Debug, Clone)]
struct Body {
    rows: Vec<Vec<String>>,
    gaps: Vec<&'static str>,
}

impl Body {
    fn render(&self, before: &str, after: &str) -> String {
        let mut gaps = self.gaps.iter().cycle();
        let mut gap = || *gaps.next().expect("cycle never ends");
        let mut out = format!("{}{{{}{before}\"rows\"{}:{}[", gap(), gap(), gap(), gap());
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push_str(&format!("{},{}", gap(), gap()));
            }
            out.push('[');
            for (j, number) in row.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{}{number}{}", gap(), gap()));
            }
            out.push(']');
        }
        out.push_str(&format!("{}]{after}{}}}{}", gap(), gap(), gap()));
        out
    }

    fn text(&self) -> String {
        self.render("", "")
    }
}

/// Number texts in every form a client may send.
fn number(rng: &mut TestRng) -> String {
    let x = (rng.unit_f64() - 0.5) * 20.0;
    match rng.below(8) {
        // Shortest round-trip text, `.0` on integral values.
        0 | 1 => serde_json::to_string(&x).unwrap(),
        2 => format!("{x:e}"),
        3 => format!("{:E}", x * 1e10),
        4 => format!("{}", rng.next_u64() as i64 >> rng.below(64)),
        5 => {
            let bits = f64::from_bits(rng.next_u64());
            if bits.is_finite() {
                format!("{bits:e}")
            } else {
                "1".to_string()
            }
        }
        6 => format!("{:.3}", x),
        _ => format!("{}e+{}", rng.below(100), rng.below(30)),
    }
}

struct ValidBodies;

impl Strategy for ValidBodies {
    type Value = Body;

    fn generate(&self, rng: &mut TestRng) -> Body {
        let rows = 1 + rng.below(4) as usize;
        let cols = 1 + rng.below(5) as usize;
        let gaps = (0..1 + rng.below(7))
            .map(|_| WHITESPACE[rng.below(WHITESPACE.len() as u64) as usize])
            .collect();
        Body {
            rows: (0..rows)
                .map(|_| (0..cols).map(|_| number(rng)).collect())
                .collect(),
            gaps,
        }
    }
}

/// Strings over an alphabet weighted towards JSON's own bytes, plus a
/// little non-ASCII.
struct ArbitraryStrings;

impl Strategy for ArbitraryStrings {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        const ALPHABET: &[char] = &[
            '{', '}', '[', ']', '"', ',', ':', '-', '+', '.', 'e', 'E', '0', '1', '7', '9', ' ',
            '\n', '\\', 'r', 'o', 'w', 's', 'n', 'u', 'l', 't', 'é', '€', '\u{0}',
        ];
        let len = rng.below(48) as usize;
        let mut out = String::new();
        if rng.below(2) == 0 {
            out.push_str("{\"rows\":[[");
        }
        for _ in 0..len {
            out.push(ALPHABET[rng.below(ALPHABET.len() as u64) as usize]);
        }
        out
    }
}

/// Replacements for one number token.
const SWAPS: [&str; 7] = ["-0", "1e400", "007", "-", "null", "\"x\"", "[]"];

/// Every mutation kind applied to one valid body: inserted whitespace, a
/// deleted, duplicated or truncated byte, an extra key before or after
/// `rows`, a second `rows` key, and one number swapped for each of
/// [`SWAPS`].
fn mutations(body: &Body, rng: &mut TestRng) -> Vec<String> {
    let text = body.text();
    let bytes = text.as_bytes();
    let at = rng.below(bytes.len() as u64) as usize;
    let splice = |insert: &[u8], keep_from: usize| {
        let mut out = bytes[..at].to_vec();
        out.extend_from_slice(insert);
        out.extend_from_slice(&bytes[keep_from..]);
        String::from_utf8(out).expect("valid bodies are ASCII")
    };
    let mut out = vec![
        splice(b" ", at),
        splice(b"", at + 1),
        splice(&[bytes[at]], at),
        text[..at].to_string(),
        body.render("\"id\":[1,{\"a\":null}],", ""),
        body.render("", ",\"id\":\"x\""),
        body.render("", ",\"rows\":[[1]]"),
    ];
    let row = rng.below(body.rows.len() as u64) as usize;
    let col = rng.below(body.rows[row].len() as u64) as usize;
    for swap in SWAPS {
        let mut swapped = body.clone();
        swapped.rows[row][col] = swap.to_string();
        out.push(swapped.text());
    }
    out
}

struct MutatedBodies;

impl Strategy for MutatedBodies {
    type Value = Vec<String>;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let body = ValidBodies.generate(rng);
        mutations(&body, rng)
    }
}

proptest! {
    #[test]
    fn arbitrary_strings_decode_like_the_general_path(body in ArbitraryStrings) {
        let _ = assert_parity(&body);
    }

    #[test]
    fn valid_bodies_decode_like_the_general_path(body in ValidBodies) {
        let text = body.text();
        let decoded = assert_parity(&text);
        prop_assert!(decoded.is_ok(), "valid body rejected: {text:?} -> {decoded:?}");
    }

    #[test]
    fn mutated_bodies_decode_like_the_general_path(cases in MutatedBodies) {
        for body in &cases {
            let _ = assert_parity(body);
        }
    }
}

const VALID: &str = "{\"rows\": [[0.5, -1.25, 3], [1e-3, 2, -7.5]]}";

fn expect_error(body: &str, code: &str, message_start: &str) {
    let (got_code, message) = assert_parity(body).expect_err(body);
    assert_eq!(got_code, code, "{body:?}");
    assert!(message.starts_with(message_start), "{body:?} -> {message}");
}

#[test]
fn inserted_whitespace_decodes_like_the_general_path() {
    assert_parity(" {\n\"rows\" :\t[ [0.5 ,-1.25,3 ] ,\r\n[1e-3,2 , -7.5]]\n}\t ").unwrap();
    // Whitespace inside the key or a number is no longer whitespace.
    expect_error(
        &VALID.replacen("rows", "ro ws", 1),
        code::INVALID_BODY,
        "invalid JSON body: missing field `rows`",
    );
    expect_error(
        &VALID.replacen("1.25", "1 .25", 1),
        code::INVALID_BODY,
        "invalid JSON body: expected `,` or `]`",
    );
}

#[test]
fn deleted_bytes_decode_like_the_general_path() {
    for at in 0..VALID.len() {
        let _ = assert_parity(&format!("{}{}", &VALID[..at], &VALID[at + 1..]));
    }
}

#[test]
fn duplicated_bytes_decode_like_the_general_path() {
    for at in 0..VALID.len() {
        let _ = assert_parity(&format!("{}{}", &VALID[..=at], &VALID[at..]));
    }
}

#[test]
fn truncated_bodies_decode_like_the_general_path() {
    for at in 0..VALID.len() {
        let _ = assert_parity(&VALID[..at]);
    }
}

#[test]
fn negative_zero_decodes_to_positive_zero_like_the_general_path() {
    let (_, _, bits) = assert_parity("{\"rows\":[[-0,-0.0]]}").unwrap();
    assert_eq!(bits, vec![0.0f64.to_bits(), (-0.0f64).to_bits()]);
}

#[test]
fn overflowing_exponent_decodes_to_infinity_like_the_general_path() {
    let (_, _, bits) = assert_parity("{\"rows\":[[1e400,-1e400]]}").unwrap();
    assert_eq!(
        bits,
        vec![f64::INFINITY.to_bits(), f64::NEG_INFINITY.to_bits()]
    );
}

#[test]
fn leading_zeros_decode_like_the_general_path() {
    let (_, _, bits) = assert_parity("{\"rows\":[[007,-0012.50]]}").unwrap();
    assert_eq!(bits, vec![7.0f64.to_bits(), (-12.5f64).to_bits()]);
}

#[test]
fn a_lone_minus_is_rejected_like_the_general_path() {
    expect_error(
        "{\"rows\":[[1,-]]}",
        code::INVALID_BODY,
        "invalid JSON body: invalid number `-`",
    );
}

#[test]
fn a_null_element_is_rejected_like_the_general_path() {
    expect_error(
        "{\"rows\":[[null,1]]}",
        code::INVALID_BODY,
        "invalid JSON body:",
    );
}

#[test]
fn a_string_element_is_rejected_like_the_general_path() {
    expect_error(
        "{\"rows\":[[1,\"x\"]]}",
        code::INVALID_BODY,
        "invalid JSON body:",
    );
}

#[test]
fn an_empty_array_element_is_rejected_like_the_general_path() {
    expect_error(
        "{\"rows\":[[1,[]]]}",
        code::INVALID_BODY,
        "invalid JSON body:",
    );
    // An empty row decodes as a 1×0 matrix; the server rejects its width.
    assert_eq!(assert_parity("{\"rows\":[[]]}"), Ok((1, 0, Vec::new())));
    expect_error(
        "{\"rows\":[]}",
        code::BAD_ROW_WIDTH,
        "`rows` must contain at least one row",
    );
    expect_error("{\"rows\":[[1,2],[3]]}", code::BAD_ROW_WIDTH, "");
    // A long row then a short one still adds up to rows × cols values.
    expect_error("{\"rows\":[[1,2],[3,4,5],[6]]}", code::BAD_ROW_WIDTH, "");
}

#[test]
fn an_extra_key_before_rows_decodes_like_the_general_path() {
    assert_parity("{\"id\":[1,{\"a\":null}],\"rows\":[[1,2]]}").unwrap();
}

#[test]
fn an_extra_key_after_rows_decodes_like_the_general_path() {
    assert_parity("{\"rows\":[[1,2]],\"id\":\"x\"}").unwrap();
}

#[test]
fn a_second_rows_key_decodes_like_the_general_path() {
    assert_parity("{\"rows\":[[1,2]],\"rows\":[[3]]}").unwrap();
    assert_parity("{\"rows\":[[1,2]],\"rows\":null}").unwrap();
}

#[test]
fn an_escaped_key_decodes_like_the_general_path() {
    assert_parity("{\"row\\u0073\":[[1,2]]}").unwrap();
}
