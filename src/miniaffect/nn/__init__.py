"""Tape autodiff, the micro encoder and its losses; import the submodules directly."""
