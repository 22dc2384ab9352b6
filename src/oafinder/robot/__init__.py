"""Web robot that hunts for open-access full texts of bibliographic records."""
