"""Peak memory of a document parse, relative to the document's text."""

import tracemalloc

import golden_outputs
from evidist.document import parse_document

# tracemalloc peaks of the parse below, as multiples of the text length,
# on Python 3.10 to 3.13: 11.2-12.5 while the whole decoded document was
# held until the last BBA was built, 8.4-9.8 with each BBA's decoded
# entries released once it is built.
PEAK_PER_TEXT_CHARACTER = 10.5


def test_parse_peak_stays_within_budget():
    text = golden_outputs.generated_document(
        golden_outputs.GENERATED_SEED, golden_outputs.GENERATED_COUNT, golden_outputs.GENERATED_SIZE
    )
    parse_document(text)  # caches filled on first use do not count
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        document = parse_document(text)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(document.bbas) == golden_outputs.GENERATED_COUNT
    ratio = peak / len(text)
    assert ratio < PEAK_PER_TEXT_CHARACTER, f"parse peak {peak} B is {ratio:.2f}x the text"
