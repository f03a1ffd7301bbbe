"""Difference-constraint solving over wraparound machine arithmetic.

Exact modular solving next to the classical integer reading, with
machine-checkable outcomes on both sides, plus 3-colorability reductions as
an instance source.
"""
