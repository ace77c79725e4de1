<o>{$input/site}</o>
