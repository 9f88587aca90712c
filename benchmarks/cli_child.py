"""Run the bindex CLI with span wrappers installed, then write the spans.

usage: python cli_child.py SPANS_OUT RUN_ID <bindex arguments...>
(needs bindex importable, for example PYTHONPATH=src)
"""

import sys

import spans


def main() -> None:
    spans_out, run_id, *args = sys.argv[1:]
    sys.argv = ["bindex", *args]
    import bindex.cli

    tracer = spans.Tracer(run_id)
    tracer.install(spans.LIBRARY_HOOKS + spans.CLI_HOOKS)
    try:
        bindex.cli.main()
    finally:
        tracer.restore()
        spans.count_profile_cache(tracer.counts)
        spans.dump(spans_out, tracer.spans, tracer.counts)


if __name__ == "__main__":
    main()
