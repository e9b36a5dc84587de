#!/usr/bin/env bash
# A/A check: the full benchmark twice on one build, each end-to-end metric's
# spread and drift next to its bound.  Takes no arguments.
exec python3 "$(dirname "${BASH_SOURCE[0]}")/aa.py"
