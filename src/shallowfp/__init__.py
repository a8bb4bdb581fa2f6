"""Shallow quantum-fingerprinting laboratory for the MOD_p language.

The package root re-exports nothing: import a module
(``from shallowfp import coeffsets``), so a command loads only the layers it
runs.
"""
