"""Retired reference implementations, kept to cross-check the fast ones."""
