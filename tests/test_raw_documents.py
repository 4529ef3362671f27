"""Raw-document ingestion (reference S1-S6 format dispatch) and latest-
version graph lookup."""

import pyarrow.parquet as pq
import pytest

from ai_knowledgegraph_extractor_ray.config import KGConfig
from ai_knowledgegraph_extractor_ray.pipelines import kg
from ai_knowledgegraph_extractor_ray.sources import documents as rawdocs
from ai_knowledgegraph_extractor_ray.sources import transcripts as src

CSV = b"name,role,company\nJohn Doe,CEO,Acme Corporation\nJane Smith,CTO,Globex\n"
TXT = b"  Sarah Johnson works at Initech Systems in Austin.  \n"


def make_pdf(lines: list[str], compress: bool = True) -> bytes:
    """Minimal single-stream PDF with one Tj per line."""
    import zlib
    content = b"BT\n" + b"\n".join(
        b"(" + ln.encode("latin-1") + b") Tj" for ln in lines) + b"\nET"
    if compress:
        content = zlib.compress(content)
    return (b"%PDF-1.4\n1 0 obj\n<< /Length " + str(len(content)).encode()
            + (b" /Filter /FlateDecode" if compress else b"")
            + b" >>\nstream\n" + content + b"\nendstream\nendobj\n%%EOF\n")


def make_docx(paragraphs: list[str]) -> bytes:
    import io as _io
    import zipfile
    W = "http://schemas.openxmlformats.org/wordprocessingml/2006/main"
    body = "".join(f"<w:p><w:r><w:t>{p}</w:t></w:r></w:p>" for p in paragraphs)
    doc = (f'<?xml version="1.0"?><w:document xmlns:w="{W}">'
           f"<w:body>{body}</w:body></w:document>")
    buf = _io.BytesIO()
    with zipfile.ZipFile(buf, "w") as z:
        z.writestr("[Content_Types].xml", "<Types/>")
        z.writestr("word/document.xml", doc)
    return buf.getvalue()


@pytest.fixture()
def doc_dir(tmp_path):
    d = tmp_path / "docs"
    d.mkdir()
    (d / "a.txt").write_bytes(TXT)
    (d / "b.csv").write_bytes(CSV)
    (d / "c.pdf").write_bytes(make_pdf(
        ["Dr. Emily Watson leads the Research Division."]))
    (d / "d.xyz").write_bytes(b"???")
    (d / "e.docx").write_bytes(make_docx(
        ["Jane Smith founded TechStart in Boston in 2020."]))
    (d / "f.pdf").write_bytes(b"%PDF-1.4 fake")   # unreadable
    return str(d)


def test_extract_text_dispatch():
    assert rawdocs.extract_text("x.txt", TXT) == (
        ".txt", "Sarah Johnson works at Initech Systems in Austin.", "")
    ext, text, err = rawdocs.extract_text("x.csv", CSV)
    # CSV flattened to prose: cells joined ", ", rows joined newline
    assert text.splitlines() == [
        "name, role, company",
        "John Doe, CEO, Acme Corporation",
        "Jane Smith, CTO, Globex",
    ]
    assert err == ""
    # blank CSV rows become empty lines, row-for-row (reference
    # services.py:55-62 appends "" for them; ADVICE round-1 fix)
    blank = b"a,b\n\nc,d\n"
    assert rawdocs.extract_text("x.csv", blank)[1].splitlines() == [
        "a, b", "", "c, d"]
    assert rawdocs.extract_text("x.pdf", b"junk")[2] == "decode_error"
    assert rawdocs.extract_text("x.weird", b"junk")[2] == "unsupported_extension"


def test_pdf_extraction_stdlib():
    """Pure-stdlib PDF path: Flate and raw streams, Tj and TJ operators,
    escaped parens."""
    pdf = make_pdf(["Alpha Corp acquired Beta LLC.", r"Nested \(parens\)."])
    ext, text, err = rawdocs.extract_text("doc.pdf", pdf)
    assert err == ""
    assert text.splitlines() == ["Alpha Corp acquired Beta LLC.",
                                 "Nested (parens)."]
    raw = make_pdf(["Uncompressed stream line."], compress=False)
    assert rawdocs.extract_text("r.pdf", raw)[1] == "Uncompressed stream line."
    # TJ array form
    import zlib
    content = zlib.compress(b"BT [(Hello ) (World)] TJ ET")
    tj = (b"%PDF-1.4\n1 0 obj\n<< /Filter /FlateDecode >>\nstream\n"
          + content + b"\nendstream\nendobj\n")
    assert rawdocs.extract_text("t.pdf", tj)[1] == "Hello World"


def test_docx_extraction_stdlib():
    docx = make_docx(["First paragraph.", "Second one."])
    ext, text, err = rawdocs.extract_text("doc.docx", docx)
    assert err == ""
    assert text == "First paragraph.\nSecond one."
    assert rawdocs.extract_text("bad.docx", b"PK\x03\x04junk")[2] == "decode_error"


def test_read_raw_documents(doc_dir):
    df = rawdocs.read_raw_documents(doc_dir).to_pandas()
    df["name"] = df["path"].str.rsplit("/", n=1).str[-1]
    by_name = df.set_index("name")
    assert "Sarah Johnson" in by_name.loc["a.txt", "text"]
    assert "John Doe, CEO" in by_name.loc["b.csv", "text"]
    assert "Emily Watson" in by_name.loc["c.pdf", "text"]
    assert "TechStart" in by_name.loc["e.docx", "text"]
    assert by_name.loc["d.xyz", "error"] == "unsupported_extension"
    assert by_name.loc["f.pdf", "error"] == "decode_error"


def test_documents_to_kg_pipeline(doc_dir, tmp_path):
    """Raw files -> transcripts -> KG job: the reference upload flow."""
    ts = rawdocs.documents_as_transcripts(rawdocs.read_raw_documents(doc_dir))
    cfg = KGConfig(num_partitions=2)
    out = str(tmp_path / "out")
    summary = kg.run_kg_job(ts, cfg, out, resume=False)
    assert summary["n_conversations"] == 4        # txt + csv + pdf + docx
    nodes = kg.read_nodes(out, 1).to_pandas()
    # the works_at sentence produced its entities
    assert "Sarah Johnson" in set(nodes["label"])
    # CSV-as-text entities extracted too (reference seed doc3 semantics)
    assert "John Doe" in set(nodes["label"])
    # PDF and DOCX text flowed through the same pipeline
    assert "Emily Watson" in set(nodes["label"])
    assert "Jane Smith" in set(nodes["label"])


def test_latest_version_lookup(tmp_path):
    p = tmp_path / "t.parquet"
    pq.write_table(src.synthetic_transcripts_table(n_convs=6, seed=2), p)
    out = str(tmp_path / "out")
    for version, cutoff in ((1, 1), (2, None)):
        cfg = KGConfig(num_partitions=2, version=version, version_cutoff=cutoff)
        kg.run_kg_job(src.read_transcripts(str(p)), cfg, out, resume=False)
    latest = kg.get_conversation_graph(out, None, "conv_00000001")
    explicit = kg.get_conversation_graph(out, 2, "conv_00000001")
    assert latest == explicit and latest["version"] == 2


def test_pdf_escape_decoding_single_pass():
    """Escaped-backslash-then-n decodes as backslash + 'n' (not LF), and
    octal escapes decode per PDF spec (ADVICE round 2)."""
    import zlib

    from ai_knowledgegraph_extractor_ray.sources.documents import (
        _basic_pdf_text,
    )

    content = rb"BT (A\\nB) Tj (oct\101l \053 x) Tj (paren\)close) Tj ET"
    stream = zlib.compress(content)
    pdf = b"%PDF-1.4\nstream\n" + stream + b"\nendstream\n"
    out = _basic_pdf_text(pdf)
    lines = out.split("\n")
    assert lines[0] == "A\\nB"          # backslash + literal n, no newline
    assert lines[1] == "octAl + x"      # \101 -> 'A', \053 -> '+'
    assert lines[2] == "paren)close"


def test_read_documents_jsonl_roundtrip(tmp_path):
    """JSONL source feeds the same downstream shape as the binary-file
    route, including transcripts derivation into the KG pipeline."""
    import json

    from ai_knowledgegraph_extractor_ray.sources.documents import (
        documents_as_transcripts,
        read_documents_jsonl,
    )

    p = tmp_path / "corpus.jsonl"
    rows = [
        {"id": "d1", "text": "John Doe is the CEO of Acme Corporation."},
        {"id": "d2", "text": "Jane Smith founded TechStart in Boston."},
        {"id": "d3", "note": "no text field"},
        {"id": "d4", "text": "   "},
    ]
    p.write_text("\n".join(json.dumps(r) for r in rows))

    out = read_documents_jsonl(str(p)).to_pandas()
    assert len(out) == 4
    ok = out[out["error"] == ""]
    assert len(ok) == 2
    assert all(s.endswith(("#d1", "#d2")) for s in ok["path"])
    assert set(out.loc[out["error"] != "", "error"]) == {"missing_text_field"}

    ts = documents_as_transcripts(read_documents_jsonl(str(p))).to_pandas()
    assert set(ts.columns) >= {"conv_id", "turn_idx", "text"}
    assert len(ts) == 2                       # one line each, error rows gone
    assert "Acme Corporation" in " ".join(ts["text"])
