"""Session set-up shared by every test module."""

from ltrnas import cli


def pytest_configure(config):
    # Fix glibc's malloc thresholds once, as `cli.main` does, so in-process
    # training and scoring run with the allocator the CLI runs with.
    cli._pin_malloc_thresholds()
