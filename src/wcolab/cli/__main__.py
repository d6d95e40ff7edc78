"""`python -m wcolab.cli`: run the command-line interface."""

from . import main

raise SystemExit(main())
