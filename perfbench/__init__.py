"""Seeded end-to-end benchmark for the circleforms command line; see README.md."""
