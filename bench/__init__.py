"""Whole-stack benchmark for the Khameleon reproduction (see README.md here)."""
