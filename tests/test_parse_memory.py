"""Peak memory of a document parse, relative to the document's text."""

import tracemalloc

import golden_outputs
from evidist.cli import _load_document
from evidist.document import parse_document

# tracemalloc peaks of the parse below, as multiples of the text length,
# on Python 3.10 to 3.13: 11.2-12.5 while the whole decoded document was
# held until the last BBA was built, 8.4-9.8 with each BBA's decoded
# entries released once it is built.
PEAK_PER_TEXT_CHARACTER = 10.5


def _generated_text():
    return golden_outputs.generated_document(
        golden_outputs.GENERATED_SEED, golden_outputs.GENERATED_COUNT, golden_outputs.GENERATED_SIZE
    )


def _traced_peak(parse, source):
    """The traced peak of ``parse(source)``, a call that returns the
    generated document."""
    parse(source)  # caches filled on first use do not count
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        document = parse(source)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(document.bbas) == golden_outputs.GENERATED_COUNT
    return peak


def test_parse_peak_stays_within_budget():
    text = _generated_text()
    peak = _traced_peak(parse_document, text)
    ratio = peak / len(text)
    assert ratio < PEAK_PER_TEXT_CHARACTER, f"parse peak {peak} B is {ratio:.2f}x the text"


def test_cli_load_frees_the_bytes_before_the_parse(tmp_path):
    # Loading also holds the decoded text, one text length over a parse of
    # text made beforehand. A caller frame that still held the file's bytes
    # would add a second; Python 3.10 keeps a call's arguments alive there.
    text = _generated_text()
    path = tmp_path / "generated.json"
    path.write_text(text, encoding="utf-8")
    text_peak = _traced_peak(parse_document, text)
    load_peak = _traced_peak(_load_document, str(path))
    assert load_peak - text_peak < 1.5 * len(text), (load_peak, text_peak, len(text))
