"""End-to-end benchmark of the QS-DNN reproduction; see README.md."""
