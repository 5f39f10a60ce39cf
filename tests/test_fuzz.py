"""Property-based robustness: the extraction kernel must be total (never
raise) and deterministic for ARBITRARY byte payloads — the per-row poison
containment the reference lacks (a consumer exception there aborts the
whole run, ``src/recognition/main.cpp:155-163``)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from ocr_suite_ray.functions.extract import extract_payload
from ocr_suite_ray.functions.html_extract import extract_html
from ocr_suite_ray.functions.textnorm import collapse_ws, decode_bytes


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=4096))
def test_extract_payload_total_and_deterministic(payload):
    a = extract_payload(payload)
    b = extract_payload(payload)
    assert a == b
    assert a["status"] == "ok" or a["status"].startswith("error:")
    assert isinstance(a["text"], str)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=4096))
def test_pdf_magic_payloads_never_crash(prefixless):
    out = extract_payload(b"%PDF-" + prefixless)
    assert out["payload_kind"] == "pdf"
    assert out["status"] == "ok" or out["status"].startswith("error:")


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=2048))
def test_html_spans_always_consistent(doc):
    out = extract_html(doc.encode("utf-8", "surrogatepass")[:2048])
    text = out["text"]
    for start, stop, kind in out["spans"]:
        assert 0 <= start <= stop <= len(text)
        assert kind
    assert out["n_blocks_kept"] == len(out["spans"])


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=1024))
def test_decode_bytes_total(b):
    s, charset = decode_bytes(b)
    assert charset in ("utf-8", "latin-1")
    assert decode_bytes(b) == (s, charset)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=512))
def test_collapse_ws_idempotent(s):
    once = collapse_ws(s)
    assert collapse_ws(once) == once
    assert "  " not in once


# --- scanner vs html.parser differential fuzz ------------------------------

@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=2048))
def test_scanner_matches_oracle_on_arbitrary_bytes(payload):
    """The fast scanner must agree with the stdlib-html.parser oracle on
    ARBITRARY byte soup, not just handcrafted cases (the known quoted-'>'
    divergence needs a quote character inside an open tag — hypothesis byte
    soup virtually never forms it; excluded by filtering)."""
    from ocr_suite_ray.functions.html_extract import extract_html_oracle

    raw, _ = decode_bytes(payload)
    # skip inputs that hit the single documented divergence: '>' inside a
    # quoted attribute value (needs < [letter] ... ["'] ... > ... ["'])
    import re as _re

    if _re.search(r"<[A-Za-z][^>]*[\"'][^\"'>]*>", raw):
        return
    assert extract_html(payload) == extract_html_oracle(payload)


# --- grammar-shaped markup: tags, attributes, CDATA, comments, truncation --

_TAG_NAMES = ["p", "div", "a", "br", "li", "h1", "title", "span", "img",
              "noscript", "template", "script", "style", "P", "DIV", "A",
              "Br", "SCRIPT", "Style", "x-y"]
_TEXT = st.lists(
    st.sampled_from(
        list("abcdefg xyz-/=<>!?\n") + ["&amp;", "&#65;", "&lt", "words "]
    ),
    max_size=12,
).map("".join)


@st.composite
def _attrs(draw):
    out = ""
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from(["href", "src", "x", "class", "data-a"]))
        value = draw(st.one_of(
            st.sampled_from(["", "a", "a/", "http://x.y/", "/", "a//", "b c"]),
            st.sampled_from(['"y"', "'/z'", '"a/"']),
        ))
        sep = draw(st.sampled_from(["", "=", " = ", "=="]))
        out += " " + name + (sep + value if sep else "")
    return out + draw(st.sampled_from(["", "/", " /", " ", "//"]))


@st.composite
def _construct(draw):
    kind = draw(st.integers(0, 6))
    name = draw(st.sampled_from(_TAG_NAMES))
    if kind == 0:
        return draw(_TEXT)
    if kind == 1:
        return "<" + name + draw(_attrs()) + ">"
    if kind == 2:
        junk = draw(st.sampled_from(["", " ", " foo=bar", "\t", "/"]))
        lead = draw(st.sampled_from(["", "", " "]))
        return "</" + lead + name + junk + ">"
    if kind == 3:  # script/style: with and without a close
        tag = draw(st.sampled_from(["script", "style", "SCRIPT", "Style"]))
        body = draw(st.sampled_from(
            ["var x = 1;", "'<p>no</p>'", "</scr", "</scripts>", "</style x>",
             "a</script foo>b", ""]))
        close = draw(st.sampled_from(
            ["</" + tag + ">", "</" + tag.upper() + " >", "</script>",
             "</style>", "</" + tag + "\n>", ""]))
        return "<" + tag + draw(_attrs()) + ">" + body + close
    if kind == 4:  # comments, '-- >' close and unterminated ones
        return "<!--" + draw(_TEXT) + draw(
            st.sampled_from(["-->", "-- >", "--\n>", "->", "", "--!>"]))
    if kind == 5:
        return draw(st.sampled_from(
            ["<!doctype html>", "<!x", "<!-x>", "<?pi ?>", "<?", "</>", "<",
             "< p>", "<!", "</ >"]))
    return draw(st.sampled_from(["<br/>", "<br>", "<br />", "</a>", "</p>"]))


@st.composite
def _markup_docs(draw):
    doc = "".join(draw(st.lists(_construct(), max_size=25)))
    return doc[: draw(st.integers(0, len(doc)))]  # truncation at any char


@settings(max_examples=400, deadline=None)
@given(_markup_docs())
def test_scanner_matches_oracle_on_grammar_shaped_markup(doc):
    """Byte soup rarely forms tags with attributes, CDATA with its close,
    '-- >' comments or a construct cut at EOF; this composes them, so the
    tokenizer grammar and the oracle meet each one often. Same divergence
    filter as the byte-soup test above."""
    import re as _re

    from ocr_suite_ray.functions.html_extract import extract_html_oracle

    out = extract_html(doc.encode())
    assert out["n_blocks_kept"] == len(out["spans"])
    if _re.search(r"<[A-Za-z][^>]*[\"'][^\"'>]*>", doc):
        return
    assert out == extract_html_oracle(doc.encode())


# --- spans shuffle codec roundtrip -----------------------------------------

@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.lists(
            st.tuples(
                st.integers(0, 10**6),
                st.integers(0, 10**6),
                st.sampled_from(["title", "heading", "paragraph", "list"]),
            ),
            max_size=6,
        ),
        min_size=1,
        max_size=20,
    )
)
def test_spans_codec_roundtrip(span_lists):
    """encode_spans/decode_spans must roundtrip arbitrary span tables —
    including empty lists, sliced tables, and multi-chunk columns."""
    import pyarrow as pa

    from ocr_suite_ray.schemas import SPAN_TYPE
    from ocr_suite_ray.stages.dedup import decode_spans, encode_spans

    spans = pa.array(
        [
            [{"start": a, "stop": b, "kind": k} for a, b, k in row]
            for row in span_lists
        ],
        pa.large_list(SPAN_TYPE),
    )
    t = pa.table(
        {
            "url": pa.array([f"u{i}" for i in range(len(span_lists))]),
            "spans": spans,
        }
    )
    rt = decode_spans(encode_spans(t))
    assert rt["spans"].to_pylist() == t["spans"].to_pylist()
    # sliced input (non-zero offset buffers)
    if len(span_lists) > 2:
        s = t.slice(1, len(span_lists) - 2)
        rt2 = decode_spans(encode_spans(s))
        assert rt2["spans"].to_pylist() == s["spans"].to_pylist()
    # multi-chunk input
    tc = pa.concat_tables([t, t])
    rt3 = decode_spans(encode_spans(tc))
    assert rt3["spans"].to_pylist() == tc["spans"].to_pylist()
