<o>{$input/site/people/person/name/text()}</o>
