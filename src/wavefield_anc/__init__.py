"""Tonal soundfield simulation, virtual-mic interpolation, and FxLMS control."""
