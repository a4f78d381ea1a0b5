"""``python -m logint``: the ``logint`` command without an install."""

from .cli import app

if __name__ == "__main__":
    app()
