"""``python -m repro serve`` with the benchmark's timers around public calls.

Used by the traced run of ``serve-mixed``: the wrapped calls
(``select_engine``, the result cache's ``get_result``/``put_result``,
``SegmentCache.success_probability``) record obs timers that the
benchmark reads back through ``GET /metrics``.  Arguments are those of
``repro serve``, starting with ``serve``.
"""

import sys

from layers import wrap_public_calls

if __name__ == "__main__":
    from repro.cli import main

    with wrap_public_calls():
        sys.exit(main(sys.argv[1:]))
